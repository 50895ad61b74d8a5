//! Patterned magnetic medium simulator — the physics substrate of the SERO
//! tamper-evident storage stack (FAST 2008 reproduction).
//!
//! The paper's medium is a regular matrix of Co/Pt multilayer dots with
//! perpendicular easy axes, read and written by a micro scanning probe
//! array. Its headline physical result is that precise local heating
//! destroys a dot's multilayer interfaces irreversibly, flipping the easy
//! axis in-plane — turning the dot into a permanent, physically
//! unforgeable mark. This crate simulates everything the paper measures or
//! assumes about that medium:
//!
//! * [`geometry`] — the dot matrix and the §6 capacity arithmetic
//!   (100 nm pitch ⇒ 10 Gbit/cm² = 65 Gbit/inch²).
//! * [`dot`] / [`medium`] — the Figure 2 tri-state dot (0/1/H with H
//!   absorbing), stored as a one-bit magnetic plane plus a sparse heated
//!   plane, dense enough to simulate file-system-sized media.
//! * [`film`] — Co/Pt interface-mixing kinetics behind Figure 7's K(T).
//! * [`torque`] — the torque-magnetometry pipeline the paper used to
//!   *measure* Figure 7 (1350 kA/m field, Fourier extraction).
//! * [`xrd`] — low- and high-angle diffraction producing Figures 8 and 9.
//! * [`thermal`] — the §7 neighbour-disturb model of the `ewb` heat pulse.
//! * [`mfm`] — the Figure 6 cantilever read channel, whose `Weak`
//!   detections turn heated dots into ECC erasures.
//!
//! # Examples
//!
//! ```
//! use sero_media::prelude::*;
//! use rand::SeedableRng;
//!
//! // Build a medium, store a bit, destroy the dot, observe the evidence.
//! let mut medium = Medium::new(Geometry::new(32, 32, 100.0));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! medium.write_mag(100, true);
//! ThermalModel::well_designed(100.0).heat_dot(&mut medium, 100, &mut rng);
//! assert!(medium.is_heated(100));
//! assert_eq!(ReadChannel::default().detect(&medium, 100, &mut rng), Detection::Weak);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dot;
pub mod film;
pub mod forensics;
pub mod geometry;
pub mod medium;
pub mod mfm;
pub mod thermal;
pub mod torque;
pub mod xrd;

/// Convenient re-exports of the types most users need.
pub mod prelude {
    pub use crate::dot::DotState;
    pub use crate::film::CoPtFilm;
    pub use crate::geometry::Geometry;
    pub use crate::medium::Medium;
    pub use crate::mfm::{Detection, ReadChannel};
    pub use crate::thermal::{HeatOutcome, ThermalModel};
    pub use crate::torque::TorqueMagnetometer;
    pub use crate::xrd::Diffractometer;
}

#[cfg(test)]
mod proptests {
    use crate::dot::{DotArray, DotState};
    use proptest::prelude::*;

    /// Operations of the Figure 2 state machine.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Mwb(bool),
        Ewb,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![any::<bool>().prop_map(Op::Mwb), Just(Op::Ewb),]
    }

    proptest! {
        /// FIG2 invariant: H is absorbing. Once a dot is heated, no
        /// operation sequence ever returns it to a magnetic state.
        #[test]
        fn heated_state_is_absorbing(ops in proptest::collection::vec(op_strategy(), 1..64)) {
            let mut dots = DotArray::new(1);
            let mut heated_seen = false;
            for op in ops {
                match op {
                    Op::Mwb(bit) => { dots.write_mag(0, bit); }
                    Op::Ewb => { dots.heat(0); heated_seen = true; }
                }
                if heated_seen {
                    prop_assert_eq!(dots.state(0), DotState::Heated);
                }
            }
        }

        /// Without ewb, the dot always reflects the last magnetic write.
        #[test]
        fn magnetic_state_tracks_last_write(bits in proptest::collection::vec(any::<bool>(), 1..64)) {
            let mut dots = DotArray::new(1);
            for &bit in &bits {
                dots.write_mag(0, bit);
            }
            let expect = if *bits.last().unwrap() { DotState::Up } else { DotState::Down };
            prop_assert_eq!(dots.state(0), expect);
        }

        /// The two-plane array against a `Vec<DotState>` model: random
        /// magnetic writes (single and bulk), heats and FIB rebuilds, then
        /// every state, the counter and both bulk accessors at every bit
        /// offset of a word, as odd `pba × 4,704` sector runs start
        /// mid-word.
        #[test]
        fn two_planes_match_a_state_model(
            len in 1u64..9_000,
            ops in proptest::collection::vec((0u8..4, any::<u64>(), any::<u64>()), 0..48),
        ) {
            let mut dots = DotArray::new(len);
            let mut model = vec![DotState::Down; len as usize];
            for (kind, a, b) in ops {
                let index = a % len;
                match kind {
                    0 => {
                        let bit = b & 1 == 1;
                        let took = model[index as usize] != DotState::Heated;
                        prop_assert_eq!(dots.write_mag(index, bit), took);
                        if took {
                            model[index as usize] = if bit { DotState::Up } else { DotState::Down };
                        }
                    }
                    1 => {
                        let fresh = model[index as usize] != DotState::Heated;
                        prop_assert_eq!(dots.heat(index), fresh);
                        model[index as usize] = DotState::Heated;
                    }
                    2 => {
                        // Rebuild a heated dot when there is one, so pages
                        // empty out and are freed.
                        let heated: Vec<u64> = (0..len).filter(|&i| model[i as usize] == DotState::Heated).collect();
                        let target = if heated.is_empty() { index } else { heated[(b % heated.len() as u64) as usize] };
                        let bit = b >> 32 & 1 == 1;
                        let was = model[target as usize] == DotState::Heated;
                        prop_assert_eq!(dots.fib_rewrite(target, bit), was);
                        model[target as usize] = if bit { DotState::Up } else { DotState::Down };
                    }
                    _ => {
                        let run = (b % (len - index + 1)) as usize;
                        let words: Vec<u64> = (0..run.div_ceil(64) as u64)
                            .map(|k| b.rotate_left(k as u32 * 7) ^ a.wrapping_mul(k + 1))
                            .collect();
                        let mut refused = 0u64;
                        for j in 0..run {
                            let dot = &mut model[index as usize + j];
                            if *dot == DotState::Heated {
                                refused += 1;
                            } else {
                                *dot = if words[j / 64] >> (j % 64) & 1 == 1 { DotState::Up } else { DotState::Down };
                            }
                        }
                        prop_assert_eq!(dots.write_mag_run(index, run, &words), refused);
                    }
                }
            }
            let heated = model.iter().filter(|s| s.is_heated()).count() as u64;
            prop_assert_eq!(dots.heated_count(), heated);
            for (i, &want) in model.iter().enumerate() {
                prop_assert_eq!(dots.state(i as u64), want);
            }
            let starts = (0..64u64.min(len)).chain([len / 2, len - 1]);
            for start in starts {
                for run in [len - start, (len - start).min(4_704), (len - start) / 3] {
                    let run = run as usize;
                    let mut mag = vec![!0u64; run.div_ceil(64)];
                    let mut heat = vec![!0u64; run.div_ceil(64)];
                    let any = dots.read_run(start, run, &mut mag, &mut heat);
                    let mut any_model = false;
                    for j in 0..run {
                        let state = model[start as usize + j];
                        any_model |= state.is_heated();
                        prop_assert_eq!(mag[j / 64] >> (j % 64) & 1 == 1, state == DotState::Up);
                        prop_assert_eq!(heat[j / 64] >> (j % 64) & 1 == 1, state.is_heated());
                    }
                    if run % 64 != 0 {
                        let pad = !0u64 << (run % 64);
                        prop_assert_eq!(mag[run / 64] & pad, 0);
                        prop_assert_eq!(heat[run / 64] & pad, 0);
                    }
                    prop_assert_eq!(any, any_model);
                }
            }
            let listed: Vec<u64> = (0..len).filter(|&i| model[i as usize].is_heated()).collect();
            prop_assert_eq!(dots.heated_in(0..len), listed);
        }

        /// The form is canonical: heating dots and rebuilding them by FIB
        /// leaves an array equal to a never-heated twin holding the same
        /// bits, freed pages included.
        #[test]
        fn fib_rebuild_restores_equality(
            len in 1u64..9_000,
            targets in proptest::collection::vec(any::<u64>(), 1..24),
        ) {
            let mut dots = DotArray::new(len);
            let mut twin = DotArray::new(len);
            for &t in &targets {
                let index = t % len;
                dots.write_mag(index, t >> 40 & 1 == 1);
                dots.heat(index);
            }
            prop_assert!(dots != twin);
            for &t in &targets {
                let index = t % len;
                let bit = t >> 50 & 1 == 1;
                dots.fib_rewrite(index, bit);
                twin.write_mag(index, bit);
            }
            prop_assert_eq!(dots.heated_count(), 0);
            prop_assert!(dots == twin);
        }

        /// The heated counter equals the number of distinct heated dots for
        /// any operation interleaving.
        #[test]
        fn heated_count_is_exact(targets in proptest::collection::vec(0u64..32, 0..128)) {
            let mut dots = DotArray::new(32);
            let mut reference = std::collections::HashSet::new();
            for t in targets {
                dots.heat(t);
                reference.insert(t);
            }
            prop_assert_eq!(dots.heated_count(), reference.len() as u64);
        }
    }
}
