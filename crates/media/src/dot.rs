//! The tri-state magnetic dot and its two-plane storage.
//!
//! Figure 2 of the paper defines the state machine of one bit:
//!
//! * `0` / `1` — magnetisation down / up along the perpendicular easy axis.
//!   `mwb` moves freely between these; `mrb` senses them.
//! * `H` — heated. The electrical write `ewb` destroys the multilayer
//!   interfaces, the easy axis falls in-plane, and the dot can never hold a
//!   perpendicular bit again. `H` is **absorbing**: no operation leaves it.
//!
//! Reading a heated dot magnetically "would yield a more or less random
//! result" (§3) — randomness is injected where reads happen, not stored
//! here, so the state itself stays deterministic and snapshot-friendly.
//!
//! # Examples
//!
//! ```
//! use sero_media::dot::{DotArray, DotState};
//!
//! let mut dots = DotArray::new(8);
//! dots.write_mag(3, true);
//! assert_eq!(dots.state(3), DotState::Up);
//! dots.heat(3);
//! assert_eq!(dots.state(3), DotState::Heated);
//! dots.write_mag(3, false); // no effect: H is absorbing
//! assert_eq!(dots.state(3), DotState::Heated);
//! ```

use core::fmt;

/// Physical state of a single dot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DotState {
    /// Magnetised downwards — logical 0.
    Down,
    /// Magnetised upwards — logical 1.
    Up,
    /// Irreversibly heated — the paper's `H`.
    Heated,
}

impl DotState {
    /// The logical bit stored magnetically, if any.
    pub fn magnetic_bit(self) -> Option<bool> {
        match self {
            DotState::Down => Some(false),
            DotState::Up => Some(true),
            DotState::Heated => None,
        }
    }

    /// True for the heated (destroyed) state.
    pub fn is_heated(self) -> bool {
        self == DotState::Heated
    }
}

impl fmt::Display for DotState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            DotState::Down => '0',
            DotState::Up => '1',
            DotState::Heated => 'H',
        };
        write!(f, "{c}")
    }
}

impl Default for DotState {
    /// Fresh media leave the factory demagnetised; we model that as all
    /// dots down (logical 0).
    fn default() -> DotState {
        DotState::Down
    }
}

/// Dots per page of the heated plane (64 words, 512 bytes).
const HEAT_PAGE_DOTS: u64 = 4096;

/// Words per page of the heated plane.
const HEAT_PAGE_WORDS: usize = (HEAT_PAGE_DOTS / 64) as usize;

/// One allocated page of the heated plane.
type HeatPage = [u64; HEAT_PAGE_WORDS];

/// Dot states stored as two planes: a dense magnetic plane and a sparse
/// heated plane.
///
/// Heat is rare and irreversible (only hash blocks carry it), so the
/// magnetic plane spends one bit per dot and the heated plane allocates
/// a 512-byte page only where a dot of its 4,096 was heated. A 65,536-block
/// medium (308 million dots) takes 36.75 MiB plus a 0.6 MiB page table.
///
/// Bit `i % 64` of word `i / 64` belongs to dot `i` in both planes. The
/// form is canonical, so the derived equality is semantic: a heated dot's
/// magnetic bit is always clear, and a page exists exactly while one of
/// its dots is heated.
#[derive(Clone, PartialEq, Eq)]
pub struct DotArray {
    mag: Vec<u64>,
    heat: Vec<Option<Box<HeatPage>>>,
    len: u64,
    heated: u64,
}

impl fmt::Debug for DotArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DotArray")
            .field("len", &self.len)
            .field("heated", &self.heated)
            .finish()
    }
}

impl DotArray {
    /// Creates `len` dots, all in the default [`DotState::Down`] state.
    pub fn new(len: u64) -> DotArray {
        DotArray {
            mag: vec![0u64; len.div_ceil(64) as usize],
            heat: vec![None; len.div_ceil(HEAT_PAGE_DOTS) as usize],
            len,
            heated: 0,
        }
    }

    /// Number of dots.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the array holds no dots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of heated dots (maintained incrementally).
    pub fn heated_count(&self) -> u64 {
        self.heated
    }

    #[inline]
    fn check(&self, index: u64) {
        assert!(index < self.len, "dot index {index} out of range");
    }

    /// Word `word` of the heated plane (zero inside an absent page).
    #[inline]
    fn heat_word(&self, word: usize) -> u64 {
        self.heat[word / HEAT_PAGE_WORDS]
            .as_ref()
            .map_or(0, |page| page[word % HEAT_PAGE_WORDS])
    }

    #[inline]
    fn heat_bit(&self, index: u64) -> bool {
        self.heat_word((index / 64) as usize) >> (index % 64) & 1 == 1
    }

    #[inline]
    fn set_mag_bit(&mut self, index: u64, bit: bool) {
        let word = &mut self.mag[(index / 64) as usize];
        let mask = 1u64 << (index % 64);
        if bit {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// The state of dot `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    #[inline]
    pub fn state(&self, index: u64) -> DotState {
        self.check(index);
        if self.heat_bit(index) {
            DotState::Heated
        } else if self.mag[(index / 64) as usize] >> (index % 64) & 1 == 1 {
            DotState::Up
        } else {
            DotState::Down
        }
    }

    /// Magnetic write (`mwb`): sets the magnetisation direction.
    ///
    /// Has no effect on heated dots — there is no perpendicular axis left to
    /// magnetise (Figure 2 bottom: `mwb 0/1` loops on `H`). Returns whether
    /// the write took effect.
    #[inline]
    pub fn write_mag(&mut self, index: u64, bit: bool) -> bool {
        self.check(index);
        if self.heat_bit(index) {
            return false;
        }
        self.set_mag_bit(index, bit);
        true
    }

    /// Electrical write (`ewb`): irreversibly heats the dot.
    ///
    /// Returns `true` when the dot was newly heated, `false` when it was
    /// already heated (reheating is idempotent and harmless).
    #[inline]
    pub fn heat(&mut self, index: u64) -> bool {
        self.check(index);
        if self.heat_bit(index) {
            return false;
        }
        let page = self.heat[(index / HEAT_PAGE_DOTS) as usize].get_or_insert_with(new_page);
        page[(index % HEAT_PAGE_DOTS / 64) as usize] |= 1 << (index % 64);
        self.set_mag_bit(index, false);
        self.heated += 1;
        true
    }

    /// Ground-truth heat inspection — what a forensic magnetic-imaging pass
    /// would reveal (§8 "Forensics").
    #[inline]
    pub fn is_heated(&self, index: u64) -> bool {
        self.check(index);
        self.heat_bit(index)
    }

    /// Focused-ion-beam reconstruction: physically rebuilds a destroyed
    /// dot's multilayer so it holds `bit` again — the §8 "skilled FIB
    /// operator" adversary. Returns whether the dot was heated before.
    ///
    /// This deliberately violates the Figure 2 state machine (nothing the
    /// *device* can do leaves `H`); only [`crate::medium::Medium`] exposes
    /// it, tagged so forensic imaging can find the scar.
    pub(crate) fn fib_rewrite(&mut self, index: u64, bit: bool) -> bool {
        let was_heated = self.is_heated(index);
        if was_heated {
            let slot = &mut self.heat[(index / HEAT_PAGE_DOTS) as usize];
            let page = slot.as_mut().expect("a heated dot has a page");
            page[(index % HEAT_PAGE_DOTS / 64) as usize] &= !(1 << (index % 64));
            if page.iter().all(|&word| word == 0) {
                *slot = None;
            }
            self.heated -= 1;
        }
        self.set_mag_bit(index, bit);
        was_heated
    }

    /// Bulk read of the run of `len` dots starting at `start`: fills the
    /// first `len.div_ceil(64)` words of `mag` with the magnetic plane and
    /// of `heated` with the heated mask, bit `j` of word `k` holding dot
    /// `start + 64·k + j` (bits past the run are clear). A heated dot's
    /// magnetic bit is clear. Returns whether any dot of the run is heated.
    ///
    /// # Panics
    ///
    /// Panics when the run leaves the array or a buffer is too short.
    pub fn read_run(&self, start: u64, len: usize, mag: &mut [u64], heated: &mut [u64]) -> bool {
        let words = len.div_ceil(64);
        let (mag, heated) = (&mut mag[..words], &mut heated[..words]);
        self.check_run(start, len);
        gather(start, len, mag, |w| self.mag[w]);
        if len == 0 || self.heat_pages(start, len).all(|page| page.is_none()) {
            heated.fill(0);
            return false;
        }
        gather(start, len, heated, |w| self.heat_word(w));
        heated.iter().any(|&word| word != 0)
    }

    /// Bulk magnetic write of the run of `len` dots starting at `start`,
    /// taking bit `j` of `bits[k]` for dot `start + 64·k + j`. Heated dots
    /// refuse their bit, as [`DotArray::write_mag`] does; returns how many
    /// refused.
    ///
    /// # Panics
    ///
    /// Panics when the run leaves the array or `bits` is too short.
    pub fn write_mag_run(&mut self, start: u64, len: usize, bits: &[u64]) -> u64 {
        self.check_run(start, len);
        let bits = &bits[..len.div_ceil(64)];
        let first = (start / 64) as usize;
        let shift = (start % 64) as u32;
        let mut refused = 0u64;
        let mut apply = |array: &mut DotArray, word: usize, value: u64, mask: u64| {
            if mask == 0 {
                return;
            }
            let heat = array.heat_word(word);
            refused += u64::from((mask & heat).count_ones());
            let take = mask & !heat;
            array.mag[word] = (array.mag[word] & !take) | (value & take);
        };
        for (k, &value) in bits.iter().enumerate() {
            let valid = run_mask(len - 64 * k);
            apply(self, first + k, value << shift, valid << shift);
            if shift > 0 {
                apply(
                    self,
                    first + k + 1,
                    value >> (64 - shift),
                    valid >> (64 - shift),
                );
            }
        }
        refused
    }

    /// Heated-dot indices in `range`, in order. Pages of the heated plane
    /// that were never heated are skipped whole.
    pub fn heated_in(&self, range: core::ops::Range<u64>) -> Vec<u64> {
        let end = range.end.min(self.len);
        let mut out = Vec::new();
        let mut index = range.start;
        while index < end {
            let page_end = (index / HEAT_PAGE_DOTS + 1) * HEAT_PAGE_DOTS;
            if self.heat[(index / HEAT_PAGE_DOTS) as usize].is_none() {
                index = page_end;
                continue;
            }
            let word_end = ((index / 64 + 1) * 64).min(end);
            let mut word = self.heat_word((index / 64) as usize) >> (index % 64);
            while word != 0 {
                let dot = index + u64::from(word.trailing_zeros());
                if dot >= word_end {
                    break;
                }
                out.push(dot);
                word &= word - 1;
            }
            index = word_end;
        }
        out
    }

    fn check_run(&self, start: u64, len: usize) {
        assert!(
            start
                .checked_add(len as u64)
                .is_some_and(|end| end <= self.len),
            "dot run {start}+{len} out of range"
        );
    }

    /// The heated-plane page slots a run touches.
    fn heat_pages(&self, start: u64, len: usize) -> impl Iterator<Item = &Option<Box<HeatPage>>> {
        let first = start / HEAT_PAGE_DOTS;
        let last = (start + len as u64 - 1) / HEAT_PAGE_DOTS;
        self.heat[first as usize..=last as usize].iter()
    }

    /// Iterator over all dot states in index order.
    pub fn iter(&self) -> impl Iterator<Item = DotState> + '_ {
        (0..self.len).map(move |i| self.state(i))
    }

    /// Fraction of dots heated.
    pub fn heated_fraction(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.heated as f64 / self.len as f64
        }
    }
}

/// A page for the heated plane's first heat in it: rare, so kept out of
/// line from the heat path.
#[cold]
fn new_page() -> Box<HeatPage> {
    Box::new([0; HEAT_PAGE_WORDS])
}

/// The low `bits` bits set (all 64 when `bits ≥ 64`).
fn run_mask(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Copies the `len` bits of a plane starting at bit `start` into `out`,
/// realigned to bit 0; `word` fetches one word of the plane.
fn gather(start: u64, len: usize, out: &mut [u64], word: impl Fn(usize) -> u64) {
    let first = (start / 64) as usize;
    let shift = (start % 64) as u32;
    let last = ((start + len as u64).saturating_sub(1) / 64) as usize;
    for (k, slot) in out.iter_mut().enumerate() {
        let lo = word(first + k) >> shift;
        let hi = if shift > 0 && first + k < last {
            word(first + k + 1) << (64 - shift)
        } else {
            0
        };
        *slot = (lo | hi) & run_mask(len - 64 * k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_state_is_down() {
        let dots = DotArray::new(16);
        assert!(dots.iter().all(|s| s == DotState::Down));
        assert_eq!(dots.heated_count(), 0);
    }

    #[test]
    fn magnetic_writes_flip_freely() {
        let mut dots = DotArray::new(4);
        assert!(dots.write_mag(1, true));
        assert_eq!(dots.state(1), DotState::Up);
        assert!(dots.write_mag(1, false));
        assert_eq!(dots.state(1), DotState::Down);
        assert!(dots.write_mag(1, true));
        assert_eq!(dots.state(1), DotState::Up);
    }

    #[test]
    fn heat_is_absorbing() {
        let mut dots = DotArray::new(4);
        dots.write_mag(2, true);
        assert!(dots.heat(2));
        assert_eq!(dots.state(2), DotState::Heated);
        // mwb on H: no effect.
        assert!(!dots.write_mag(2, false));
        assert_eq!(dots.state(2), DotState::Heated);
        // Re-heating: idempotent, not counted twice.
        assert!(!dots.heat(2));
        assert_eq!(dots.heated_count(), 1);
    }

    #[test]
    fn heated_count_tracks() {
        let mut dots = DotArray::new(100);
        for i in (0..100).step_by(3) {
            dots.heat(i);
        }
        assert_eq!(dots.heated_count(), 34);
        assert!((dots.heated_fraction() - 0.34).abs() < 1e-12);
    }

    #[test]
    fn packing_is_independent_per_dot() {
        // Dots sharing a byte must not interfere.
        let mut dots = DotArray::new(8);
        dots.write_mag(0, true);
        dots.heat(1);
        dots.write_mag(2, true);
        dots.write_mag(3, false);
        assert_eq!(dots.state(0), DotState::Up);
        assert_eq!(dots.state(1), DotState::Heated);
        assert_eq!(dots.state(2), DotState::Up);
        assert_eq!(dots.state(3), DotState::Down);
        dots.write_mag(0, false);
        assert_eq!(dots.state(1), DotState::Heated);
        assert_eq!(dots.state(2), DotState::Up);
    }

    #[test]
    fn magnetic_bit_mapping() {
        assert_eq!(DotState::Down.magnetic_bit(), Some(false));
        assert_eq!(DotState::Up.magnetic_bit(), Some(true));
        assert_eq!(DotState::Heated.magnetic_bit(), None);
    }

    #[test]
    fn display_notation() {
        assert_eq!(DotState::Down.to_string(), "0");
        assert_eq!(DotState::Up.to_string(), "1");
        assert_eq!(DotState::Heated.to_string(), "H");
    }

    #[test]
    fn odd_sizes_work() {
        for len in [1u64, 3, 5, 7, 9, 1023] {
            let mut dots = DotArray::new(len);
            dots.heat(len - 1);
            assert_eq!(dots.heated_count(), 1);
            assert_eq!(dots.state(len - 1), DotState::Heated);
        }
        assert!(DotArray::new(0).is_empty());
    }

    #[test]
    fn bulk_write_at_every_bit_offset_matches_per_dot_writes() {
        // Runs from every offset within a word, as sector runs start
        // mid-word on odd blocks, over a plane with heated dots.
        for start in 0..64u64 {
            for len in [1usize, 63, 64, 65, 200] {
                let mut bulk = DotArray::new(400);
                for i in (0..400).step_by(7) {
                    bulk.heat(i);
                }
                let mut single = bulk.clone();
                let bits: Vec<u64> = (0..len.div_ceil(64) as u64)
                    .map(|k| 0x9e37_79b9_7f4a_7c15u64.rotate_left(k as u32 * 13 + start as u32))
                    .collect();
                let mut refused = 0;
                for j in 0..len {
                    if !single.write_mag(start + j as u64, bits[j / 64] >> (j % 64) & 1 == 1) {
                        refused += 1;
                    }
                }
                assert_eq!(bulk.write_mag_run(start, len, &bits), refused);
                assert!(bulk == single, "start {start}, len {len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        DotArray::new(4).state(4);
    }
}
