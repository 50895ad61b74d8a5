//! Magnetic Force Microscopy read channel — §6 / Figure 6 of the paper.
//!
//! The µSPAM reads with the MFM principle: a magnetic tip on a cantilever is
//! attracted or repelled by the stray field of each dot, and the cantilever
//! deflection is sensed capacitively. An out-of-plane dot produces a clear
//! positive or negative peak (Figure 1, top); a heated dot's in-plane
//! moment produces almost no out-of-plane stray field, so its peak
//! disappears (Figure 1, bottom).
//!
//! The channel model: `signal = polarity·A + leakage + noise`, where
//! heated dots have zero polarity and only a small random in-plane leakage.
//! The detector thresholds the signal and reports [`Detection::Weak`] when
//! the magnitude is ambiguous — which is how heated dots inside magnetic
//! data areas surface as *erasures* for the Reed–Solomon decoder ("an
//! electrically written bit in the data … appears as a read error", §5.1).
//!
//! # Exact channels
//!
//! The noise is bounded: the Box–Muller sampler clamps its first uniform
//! at 1e-12 and |cos| ≤ 1, so no sample exceeds
//! σ·√(−2 ln 1e-12) ≈ 7.4338σ ([`NOISE_BOUND_SIGMAS`] rounds it up). When
//! `amplitude − 7.434σ ≥ threshold` and `leakage + 7.434σ < threshold`,
//! every decision is fixed by the dot's state alone: intact dots always
//! read their bit and heated dots always read [`Detection::Weak`]
//! ([`ReadChannel::decisions_are_exact`]; the default σ = 0.05 channel
//! qualifies). Only the number of RNG words [`ReadChannel::detect`] draws
//! then matters to later reads ([`ReadChannel::detect_draws`]): 2 per
//! intact dot and 4 per heated dot when σ > 0, or 0 and 2 when σ = 0.
//! The probe's sector reads use this to sense a run of dots a word at a
//! time while keeping the RNG stream of the per-dot path.
//!
//! # Examples
//!
//! ```
//! use sero_media::geometry::Geometry;
//! use sero_media::medium::Medium;
//! use sero_media::mfm::{Detection, ReadChannel};
//! use rand::SeedableRng;
//!
//! let mut medium = Medium::new(Geometry::new(4, 4, 100.0));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(9);
//! medium.write_mag(0, true);
//! medium.heat(1);
//! let channel = ReadChannel::default();
//! assert_eq!(channel.detect(&medium, 0, &mut rng), Detection::One);
//! assert_eq!(channel.detect(&medium, 1, &mut rng), Detection::Weak);
//! ```

use crate::dot::DotState;
use crate::medium::Medium;
use rand::Rng;

/// Outcome of thresholding one dot's read-back signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Detection {
    /// Clear negative peak — logical 0.
    Zero,
    /// Clear positive peak — logical 1.
    One,
    /// No reliable peak: a heated dot or a noise casualty. Surfaces as an
    /// erasure to the sector ECC.
    Weak,
}

impl Detection {
    /// The detected logical bit, if unambiguous.
    pub fn bit(self) -> Option<bool> {
        match self {
            Detection::Zero => Some(false),
            Detection::One => Some(true),
            Detection::Weak => None,
        }
    }
}

/// Bound on one noise sample in units of σ: √(−2 ln 1e-12) = 7.43384…,
/// rounded up so float rounding in the signal sum stays inside it.
pub const NOISE_BOUND_SIGMAS: f64 = 7.434;

/// An MFM cantilever read channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadChannel {
    /// Nominal peak amplitude of an out-of-plane dot (arbitrary units).
    amplitude: f64,
    /// RMS additive Gaussian noise.
    noise_rms: f64,
    /// Residual out-of-plane leakage of a destroyed (in-plane) dot.
    heated_leakage: f64,
    /// Decision threshold: |signal| below this reports [`Detection::Weak`].
    threshold: f64,
}

impl Default for ReadChannel {
    /// A channel with ~26 dB peak SNR, comfortably separating the three
    /// signal classes.
    fn default() -> ReadChannel {
        ReadChannel {
            amplitude: 1.0,
            noise_rms: 0.05,
            heated_leakage: 0.08,
            threshold: 0.5,
        }
    }
}

impl ReadChannel {
    /// A custom channel.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < threshold < amplitude` and the noise terms are
    /// non-negative.
    pub fn new(amplitude: f64, noise_rms: f64, heated_leakage: f64, threshold: f64) -> ReadChannel {
        assert!(amplitude > 0.0 && threshold > 0.0 && threshold < amplitude);
        assert!(noise_rms >= 0.0 && heated_leakage >= 0.0);
        ReadChannel {
            amplitude,
            noise_rms,
            heated_leakage,
            threshold,
        }
    }

    /// Peak signal-to-noise ratio in dB.
    pub fn snr_db(&self) -> f64 {
        20.0 * (self.amplitude / self.noise_rms.max(1e-12)).log10()
    }

    /// True when noise can never change a decision: an intact dot always
    /// reads its bit and a heated dot always reads [`Detection::Weak`],
    /// because `amplitude − bσ ≥ threshold` and
    /// `heated_leakage + bσ < threshold` with b = [`NOISE_BOUND_SIGMAS`].
    pub fn decisions_are_exact(&self) -> bool {
        let reach = NOISE_BOUND_SIGMAS * self.noise_rms;
        self.amplitude - reach >= self.threshold && self.heated_leakage + reach < self.threshold
    }

    /// RNG words one [`ReadChannel::detect`] call draws for an intact or a
    /// heated dot: the two Box–Muller uniforms when σ > 0, plus the sign
    /// and the leakage draw of a heated dot.
    pub fn detect_draws(&self, heated: bool) -> u64 {
        let noise = if self.noise_rms == 0.0 { 0 } else { 2 };
        noise + if heated { 2 } else { 0 }
    }

    /// The raw cantilever signal for dot `index`.
    pub fn sense<R: Rng + ?Sized>(&self, medium: &Medium, index: u64, rng: &mut R) -> f64 {
        let base = match medium.state(index) {
            DotState::Up => self.amplitude,
            DotState::Down => -self.amplitude,
            DotState::Heated => {
                // In-plane moment: tiny residual out-of-plane component with
                // random sign, far below threshold.
                let sign = if rng.random::<bool>() { 1.0 } else { -1.0 };
                sign * self.heated_leakage * rng.random::<f64>()
            }
        };
        base + gaussian_noise(rng, self.noise_rms)
    }

    /// Senses and thresholds dot `index`.
    pub fn detect<R: Rng + ?Sized>(&self, medium: &Medium, index: u64, rng: &mut R) -> Detection {
        let signal = self.sense(medium, index, rng);
        if signal >= self.threshold {
            Detection::One
        } else if signal <= -self.threshold {
            Detection::Zero
        } else {
            Detection::Weak
        }
    }

    /// Reads a run of dots, returning detections in order. The probe array
    /// layer builds sector reads from this.
    pub fn detect_run<R: Rng + ?Sized>(
        &self,
        medium: &Medium,
        range: core::ops::Range<u64>,
        rng: &mut R,
    ) -> Vec<Detection> {
        range.map(|i| self.detect(medium, i, rng)).collect()
    }

    /// Direct in-plane heat sensing — available only on elliptic-dot media
    /// (§3: "read the in-plane magnetic signal directly, however, this
    /// requires carefully constructed elliptic dots").
    ///
    /// A destroyed elliptic dot carries its full moment along the track
    /// axis, producing a strong in-plane signal; an intact perpendicular
    /// dot produces almost none. One read, no write-back — five times
    /// cheaper than the `erb` protocol. Returns `None` on circular media,
    /// where the in-plane direction of a destroyed dot is unknowable.
    pub fn sense_heat_in_plane<R: Rng + ?Sized>(
        &self,
        medium: &Medium,
        index: u64,
        rng: &mut R,
    ) -> Option<bool> {
        if medium.shape() != crate::medium::DotShape::Elliptic {
            return None;
        }
        let base = match medium.state(index) {
            DotState::Heated => 0.85 * self.amplitude,
            // Intact dots leak a little in-plane component through tilt.
            _ => self.heated_leakage,
        };
        let signal = base + gaussian_noise(rng, self.noise_rms);
        Some(signal >= self.threshold)
    }
}

/// Box–Muller Gaussian sample with standard deviation `sigma`.
fn gaussian_noise<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    if sigma == 0.0 {
        return 0.0;
    }
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn medium() -> Medium {
        Medium::new(Geometry::new(8, 8, 100.0))
    }

    #[test]
    fn clean_bits_detected_reliably() {
        let mut m = medium();
        let mut rng = StdRng::seed_from_u64(11);
        let ch = ReadChannel::default();
        for i in 0..m.dot_count() {
            m.write_mag(i, i % 2 == 0);
        }
        let mut errors = 0;
        for _ in 0..20 {
            for i in 0..m.dot_count() {
                match ch.detect(&m, i, &mut rng).bit() {
                    Some(bit) if bit == (i % 2 == 0) => {}
                    _ => errors += 1,
                }
            }
        }
        // 26 dB SNR with threshold at half amplitude: error rate is
        // essentially the Gaussian tail at 10 sigma.
        assert_eq!(errors, 0);
    }

    #[test]
    fn heated_dots_read_weak() {
        let mut m = medium();
        let mut rng = StdRng::seed_from_u64(12);
        let ch = ReadChannel::default();
        m.heat(7);
        let weak = (0..200)
            .filter(|_| ch.detect(&m, 7, &mut rng) == Detection::Weak)
            .count();
        assert!(
            weak >= 198,
            "heated dot produced a peak {}/200 times",
            200 - weak
        );
    }

    #[test]
    fn noisy_channel_degrades_gracefully() {
        let mut m = medium();
        let mut rng = StdRng::seed_from_u64(13);
        // 6 dB channel: noise rms half the amplitude.
        let ch = ReadChannel::new(1.0, 0.5, 0.08, 0.5);
        m.write_mag(0, true);
        let mut weak = 0;
        let mut wrong = 0;
        for _ in 0..1000 {
            match ch.detect(&m, 0, &mut rng) {
                Detection::One => {}
                Detection::Weak => weak += 1,
                Detection::Zero => wrong += 1,
            }
        }
        assert!(weak > 50, "a 6 dB channel must show erasures: {weak}");
        assert!(wrong < weak, "hard errors should be rarer than erasures");
    }

    #[test]
    fn detect_run_orders_results() {
        let mut m = medium();
        let mut rng = StdRng::seed_from_u64(14);
        let ch = ReadChannel::default();
        m.write_mag(0, true);
        m.write_mag(1, false);
        m.heat(2);
        let run = ch.detect_run(&m, 0..3, &mut rng);
        assert_eq!(run[0], Detection::One);
        assert_eq!(run[1], Detection::Zero);
        assert_eq!(run[2], Detection::Weak);
    }

    #[test]
    fn snr_reported() {
        assert!((ReadChannel::default().snr_db() - 26.0).abs() < 0.1);
    }

    #[test]
    fn in_plane_sensing_needs_elliptic_dots() {
        use crate::film::CoPtFilm;
        use crate::medium::DotShape;
        let mut rng = StdRng::seed_from_u64(21);
        let ch = ReadChannel::default();

        let circular = Medium::new(Geometry::new(4, 4, 100.0));
        assert_eq!(ch.sense_heat_in_plane(&circular, 0, &mut rng), None);

        let mut elliptic = Medium::with_shape(
            Geometry::new(4, 4, 150.0),
            CoPtFilm::as_grown(),
            DotShape::Elliptic,
        );
        elliptic.write_mag(0, true);
        elliptic.heat(1);
        let mut wrong = 0;
        for _ in 0..200 {
            if ch.sense_heat_in_plane(&elliptic, 0, &mut rng) != Some(false) {
                wrong += 1;
            }
            if ch.sense_heat_in_plane(&elliptic, 1, &mut rng) != Some(true) {
                wrong += 1;
            }
        }
        assert_eq!(wrong, 0, "direct sensing should be clean at 26 dB");
    }

    #[test]
    fn exactness_marks_the_noise_floor() {
        assert!(ReadChannel::default().decisions_are_exact());
        assert!(ReadChannel::new(1.0, 0.0, 0.08, 0.5).decisions_are_exact());
        for sigma in [0.2, 0.45] {
            assert!(!ReadChannel::new(1.0, sigma, 0.08, 0.5).decisions_are_exact());
        }
        // Leakage alone at the threshold can read as a peak.
        assert!(!ReadChannel::new(1.0, 0.0, 0.5, 0.5).decisions_are_exact());
    }

    #[test]
    fn detect_draws_match_the_stream() {
        use rand::RngCore;
        let mut m = medium();
        m.write_mag(0, true);
        m.heat(1);
        for ch in [
            ReadChannel::default(),
            ReadChannel::new(1.0, 0.0, 0.08, 0.5),
        ] {
            for (dot, heated) in [(0u64, false), (1, true)] {
                let mut oracle = StdRng::seed_from_u64(5);
                let mut skipped = oracle.clone();
                ch.detect(&m, dot, &mut oracle);
                for _ in 0..ch.detect_draws(heated) {
                    skipped.next_u64();
                }
                assert_eq!(oracle.next_u64(), skipped.next_u64());
            }
        }
    }

    #[test]
    #[should_panic]
    fn threshold_above_amplitude_panics() {
        ReadChannel::new(1.0, 0.1, 0.1, 1.5);
    }
}
