//! Systematic Reed–Solomon code over GF(2⁸) with errors-and-erasures decoding.
//!
//! The paper adopts Pozidis et al.'s sector format: 512 bytes of data plus
//! roughly 15 % overhead for "the sector header, error correction, and cyclic
//! redundancy check", with error correction "appropriate to the medium, the
//! tips, etc.". Probe-storage read channels suffer both random symbol errors
//! (tip noise) and *known-location* failures — a heated dot inside a magnetic
//! area produces no read-back peak and is flagged by the channel, which is an
//! erasure. This decoder therefore corrects `e` errors and `f` erasures
//! whenever `2e + f ≤ nroots`.
//!
//! Conventions: codewords are `data ‖ parity`; byte 0 is the highest-degree
//! coefficient; syndromes use consecutive roots α⁰, α¹, … (fcr = 0).
//!
//! # Examples
//!
//! ```
//! use sero_codec::rs::ReedSolomon;
//!
//! let rs = ReedSolomon::new(8).unwrap(); // corrects 4 errors per codeword
//! let data = b"probe storage sector".to_vec();
//! let mut codeword = rs.encode(&data);
//! codeword[3] ^= 0xff; // channel noise
//! codeword[10] ^= 0x55;
//! let report = rs.decode(&mut codeword, &[]).unwrap();
//! assert_eq!(report.corrected_errors, 2);
//! assert_eq!(&codeword[..data.len()], &data[..]);
//! ```

use crate::gf256::Gf256;
use core::fmt;

/// Maximum codeword length for a GF(2⁸) Reed–Solomon code.
pub const MAX_CODEWORD_LEN: usize = 255;

/// Errors reported by the Reed–Solomon codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// `nroots` outside `1..=254`.
    BadParameters {
        /// The rejected parity symbol count.
        nroots: usize,
    },
    /// Message plus parity would exceed 255 symbols.
    MessageTooLong {
        /// Bytes of data supplied.
        data_len: usize,
        /// Maximum data bytes for this code.
        max: usize,
    },
    /// An erasure index lies outside the codeword.
    BadErasure {
        /// The offending index.
        index: usize,
        /// Codeword length.
        len: usize,
    },
    /// More corruption than the code can correct.
    TooManyErrors,
}

impl fmt::Display for RsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsError::BadParameters { nroots } => {
                write!(f, "nroots {nroots} outside supported range 1..=254")
            }
            RsError::MessageTooLong { data_len, max } => {
                write!(f, "message of {data_len} bytes exceeds maximum {max}")
            }
            RsError::BadErasure { index, len } => {
                write!(f, "erasure index {index} outside codeword of length {len}")
            }
            RsError::TooManyErrors => f.write_str("too many errors to correct"),
        }
    }
}

impl std::error::Error for RsError {}

/// Outcome of a successful decode.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DecodeReport {
    /// Number of corrupted symbols repaired at unknown locations.
    pub corrected_errors: usize,
    /// Number of erased symbols repaired at caller-supplied locations.
    pub corrected_erasures: usize,
}

impl DecodeReport {
    /// Total symbols repaired.
    pub fn total(&self) -> usize {
        self.corrected_errors + self.corrected_erasures
    }
}

/// A Reed–Solomon encoder/decoder with a fixed number of parity symbols.
#[derive(Clone)]
pub struct ReedSolomon {
    nroots: usize,
    /// Multiply-by-constant tables for the generator's coefficients below
    /// the leading one: `generator_tables[i][b] = b·g_{i+1}`, so an encoder
    /// step is one lookup and one XOR per parity symbol.
    generator_tables: Vec<[u8; 256]>,
    /// Per-root multiply-by-constant tables: `root_tables[j][b] = b·α^j`,
    /// so a syndrome's Horner step is one lookup and one XOR.
    root_tables: Vec<[u8; 256]>,
}

/// The table of `b·c` for every byte `b`.
fn times_table(c: Gf256) -> [u8; 256] {
    let mut table = [0u8; 256];
    for (b, product) in table.iter_mut().enumerate() {
        *product = (Gf256::new(b as u8) * c).value();
    }
    table
}

impl fmt::Debug for ReedSolomon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReedSolomon")
            .field("nroots", &self.nroots)
            .finish_non_exhaustive()
    }
}

impl ReedSolomon {
    /// Creates a code with `nroots` parity symbols, correcting up to
    /// `nroots / 2` errors (or more erasures).
    ///
    /// # Errors
    ///
    /// Returns [`RsError::BadParameters`] unless `1 ≤ nroots ≤ 254`.
    pub fn new(nroots: usize) -> Result<ReedSolomon, RsError> {
        if nroots == 0 || nroots >= MAX_CODEWORD_LEN {
            return Err(RsError::BadParameters { nroots });
        }
        // g(x) = Π_{i=0}^{nroots-1} (x - α^i), highest-degree coefficient
        // first.
        let mut generator = vec![Gf256::ONE];
        for i in 0..nroots {
            let root = Gf256::alpha_pow(i);
            let mut next = vec![Gf256::ZERO; generator.len() + 1];
            for (j, &c) in generator.iter().enumerate() {
                next[j] += c; // times x
                next[j + 1] += c * root; // times root
            }
            generator = next;
        }
        Ok(ReedSolomon {
            nroots,
            generator_tables: generator[1..].iter().map(|&g| times_table(g)).collect(),
            root_tables: (0..nroots)
                .map(|j| times_table(Gf256::alpha_pow(j)))
                .collect(),
        })
    }

    /// Number of parity symbols appended to each message.
    pub fn nroots(&self) -> usize {
        self.nroots
    }

    /// Maximum data bytes per codeword.
    pub fn max_data_len(&self) -> usize {
        MAX_CODEWORD_LEN - self.nroots
    }

    /// Number of symbol errors correctable without erasure information.
    pub fn error_capacity(&self) -> usize {
        self.nroots / 2
    }

    /// Encodes `data`, returning the full systematic codeword
    /// `data ‖ parity`.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::MessageTooLong`] when the codeword would exceed
    /// 255 symbols.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        self.try_encode(data)
            .expect("caller checked message length")
    }

    /// Fallible variant of [`ReedSolomon::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`RsError::MessageTooLong`] when the codeword would exceed
    /// 255 symbols.
    pub fn try_encode(&self, data: &[u8]) -> Result<Vec<u8>, RsError> {
        if data.len() > self.max_data_len() {
            return Err(RsError::MessageTooLong {
                data_len: data.len(),
                max: self.max_data_len(),
            });
        }
        // Synthetic division of data(x)·x^nroots by g(x); the remainder is
        // the parity.
        let mut parity = [0u8; MAX_CODEWORD_LEN];
        let parity = &mut parity[..self.nroots];
        for &byte in data {
            let factor = usize::from(byte ^ parity[0]);
            parity.rotate_left(1);
            parity[self.nroots - 1] = 0;
            if factor != 0 {
                for (p, table) in parity.iter_mut().zip(&self.generator_tables) {
                    *p ^= table[factor];
                }
            }
        }
        let mut out = Vec::with_capacity(data.len() + self.nroots);
        out.extend_from_slice(data);
        out.extend_from_slice(parity);
        Ok(out)
    }

    /// Corrects `codeword` in place.
    ///
    /// `erasures` lists byte indices whose values are known to be unreliable
    /// (for SERO: dots flagged heated by the read channel). Correction
    /// succeeds whenever `2·errors + erasures ≤ nroots`.
    ///
    /// # Errors
    ///
    /// [`RsError::TooManyErrors`] when the corruption exceeds the code's
    /// capability (detected by Chien-search mismatch or residual syndromes);
    /// [`RsError::BadErasure`] / [`RsError::MessageTooLong`] for malformed
    /// arguments.
    pub fn decode(&self, codeword: &mut [u8], erasures: &[usize]) -> Result<DecodeReport, RsError> {
        let n = codeword.len();
        if n > MAX_CODEWORD_LEN || n <= self.nroots {
            return Err(RsError::MessageTooLong {
                data_len: n.saturating_sub(self.nroots),
                max: self.max_data_len(),
            });
        }
        for &e in erasures {
            if e >= n {
                return Err(RsError::BadErasure { index: e, len: n });
            }
        }
        if erasures.len() > self.nroots {
            return Err(RsError::TooManyErrors);
        }

        let mut synd = [0u8; MAX_CODEWORD_LEN];
        if self.syndromes(codeword, &mut synd[..self.nroots]) {
            // Clean word; erased positions already hold correct values.
            return Ok(DecodeReport::default());
        }
        let synd: Vec<Gf256> = synd[..self.nroots].iter().map(|&s| Gf256::new(s)).collect();

        // Erasure locator Γ(x) = Π (1 - α^p x), lowest-degree-first.
        let mut gamma = vec![Gf256::ONE];
        let mut erasure_set: Vec<usize> = erasures.to_vec();
        erasure_set.sort_unstable();
        erasure_set.dedup();
        for &k in &erasure_set {
            let x = Gf256::alpha_pow(n - 1 - k);
            gamma = poly_mul_low(&gamma, &[Gf256::ONE, x]);
        }
        let rho = erasure_set.len();

        // Forney syndromes: coefficients ρ..2t of S(x)·Γ(x).
        let product = poly_mul_mod(&synd, &gamma, self.nroots);
        let fsynd = &product[rho..];

        // Berlekamp–Massey for the unknown-error locator Λ(x).
        let lambda = berlekamp_massey(fsynd)?;
        let num_errors = lambda.len() - 1;
        if 2 * num_errors > self.nroots - rho {
            return Err(RsError::TooManyErrors);
        }

        // Combined errata locator Ψ = Λ·Γ and evaluator Ω = S·Ψ mod x^2t.
        let psi = poly_mul_low(&lambda, &gamma);
        let omega = poly_mul_mod(&synd, &psi, self.nroots);

        // Chien search over all codeword positions.
        let mut positions = Vec::new();
        for k in 0..n {
            let p = n - 1 - k;
            let x_inv = Gf256::alpha_pow(255 - (p % 255));
            if eval_low(&psi, x_inv).is_zero() {
                positions.push(k);
            }
        }
        if positions.len() != psi.len() - 1 {
            return Err(RsError::TooManyErrors);
        }

        // Forney algorithm: e = X·Ω(X⁻¹) / Ψ'(X⁻¹).
        let psi_prime = derivative_low(&psi);
        for &k in &positions {
            let p = n - 1 - k;
            let x = Gf256::alpha_pow(p);
            let x_inv = x.inverse();
            let num = x * eval_low(&omega, x_inv);
            let den = eval_low(&psi_prime, x_inv);
            if den.is_zero() {
                return Err(RsError::TooManyErrors);
            }
            codeword[k] ^= (num / den).value();
        }

        // Re-verify.
        let mut check = [0u8; MAX_CODEWORD_LEN];
        if !self.syndromes(codeword, &mut check[..self.nroots]) {
            return Err(RsError::TooManyErrors);
        }

        let corrected_erasures = positions.iter().filter(|p| erasure_set.contains(p)).count();
        Ok(DecodeReport {
            corrected_errors: positions.len() - corrected_erasures,
            corrected_erasures,
        })
    }

    /// Fills `synd` with the syndromes `S_j = r(α^j)`, lowest index first,
    /// by Horner's rule over the per-root tables (all roots advance
    /// together, one codeword byte at a time). Returns whether all are
    /// zero, i.e. the word is clean.
    fn syndromes(&self, codeword: &[u8], synd: &mut [u8]) -> bool {
        synd.fill(0);
        for &b in codeword {
            for (s, table) in synd.iter_mut().zip(&self.root_tables) {
                *s = table[*s as usize] ^ b;
            }
        }
        synd.iter().all(|&s| s == 0)
    }
}

/// Berlekamp–Massey over `synd` (lowest index first), returning the error
/// locator polynomial lowest-degree-first (`λ₀ = 1`).
fn berlekamp_massey(synd: &[Gf256]) -> Result<Vec<Gf256>, RsError> {
    let mut lambda = vec![Gf256::ONE];
    let mut prev = vec![Gf256::ONE];
    let mut l = 0usize;
    let mut m = 1usize;
    let mut prev_delta = Gf256::ONE;

    for i in 0..synd.len() {
        let mut delta = synd[i];
        for j in 1..=l.min(lambda.len() - 1) {
            delta += lambda[j] * synd[i - j];
        }
        if delta.is_zero() {
            m += 1;
        } else if 2 * l <= i {
            let saved = lambda.clone();
            lambda = poly_sub_shifted(&lambda, delta / prev_delta, m, &prev);
            l = i + 1 - l;
            prev = saved;
            prev_delta = delta;
            m = 1;
        } else {
            lambda = poly_sub_shifted(&lambda, delta / prev_delta, m, &prev);
            m += 1;
        }
    }
    while lambda.len() > 1 && lambda.last() == Some(&Gf256::ZERO) {
        lambda.pop();
    }
    if lambda.len() - 1 != l {
        return Err(RsError::TooManyErrors);
    }
    Ok(lambda)
}

/// `a - scale·x^shift·b` for lowest-first polynomials (char 2: minus is plus).
fn poly_sub_shifted(a: &[Gf256], scale: Gf256, shift: usize, b: &[Gf256]) -> Vec<Gf256> {
    let mut out = a.to_vec();
    let needed = shift + b.len();
    if out.len() < needed {
        out.resize(needed, Gf256::ZERO);
    }
    for (i, &c) in b.iter().enumerate() {
        out[shift + i] += scale * c;
    }
    out
}

/// Product of two lowest-first polynomials.
fn poly_mul_low(a: &[Gf256], b: &[Gf256]) -> Vec<Gf256> {
    let mut out = vec![Gf256::ZERO; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        if x.is_zero() {
            continue;
        }
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

/// Product modulo x^`modulus`, zero-padded to exactly `modulus` coefficients.
fn poly_mul_mod(a: &[Gf256], b: &[Gf256], modulus: usize) -> Vec<Gf256> {
    let mut out = poly_mul_low(a, b);
    out.resize(modulus, Gf256::ZERO);
    out
}

/// Evaluation of a lowest-first polynomial.
fn eval_low(p: &[Gf256], x: Gf256) -> Gf256 {
    p.iter().rev().fold(Gf256::ZERO, |acc, &c| acc * x + c)
}

/// Formal derivative of a lowest-first polynomial (char 2).
fn derivative_low(p: &[Gf256]) -> Vec<Gf256> {
    if p.len() <= 1 {
        return vec![Gf256::ZERO];
    }
    (1..p.len())
        .map(|i| if i % 2 == 1 { p[i] } else { Gf256::ZERO })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The syndromes with generic GF(2⁸) arithmetic: the oracle for the
    /// table-driven [`ReedSolomon::syndromes`].
    fn generic_syndromes(nroots: usize, codeword: &[u8]) -> Vec<u8> {
        (0..nroots)
            .map(|j| {
                let x = Gf256::alpha_pow(j);
                codeword
                    .iter()
                    .fold(Gf256::ZERO, |acc, &b| acc * x + Gf256::new(b))
                    .value()
            })
            .collect()
    }

    fn sample_data(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    proptest::proptest! {
        /// Table syndromes equal generic GF(2⁸) syndromes on clean and
        /// corrupted codewords of every code size, and report a clean word
        /// exactly when every syndrome is zero.
        #[test]
        fn table_syndromes_match_generic_arithmetic(
            nroots in 1usize..=254,
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 254),
            len in proptest::prelude::any::<usize>(),
            hits in proptest::collection::vec((proptest::prelude::any::<usize>(), 1u8..=255), 0..4),
        ) {
            let rs = ReedSolomon::new(nroots).unwrap();
            let data_len = 1 + len % (MAX_CODEWORD_LEN - nroots);
            let mut word = rs.encode(&data[..data_len]);
            for &(at, flip) in &hits {
                let n = word.len();
                word[at % n] ^= flip;
            }
            let mut synd = vec![0u8; nroots];
            let clean = rs.syndromes(&word, &mut synd);
            let want = generic_syndromes(nroots, &word);
            proptest::prop_assert_eq!(&synd, &want);
            proptest::prop_assert_eq!(clean, want.iter().all(|&s| s == 0));
            if hits.is_empty() {
                proptest::prop_assert!(clean);
            }
        }
    }

    #[test]
    fn encode_appends_parity() {
        let rs = ReedSolomon::new(8).unwrap();
        let data = sample_data(32, 1);
        let cw = rs.encode(&data);
        assert_eq!(cw.len(), 40);
        assert_eq!(&cw[..32], &data[..]);
    }

    #[test]
    fn clean_codeword_decodes_unchanged() {
        let rs = ReedSolomon::new(8).unwrap();
        let data = sample_data(100, 2);
        let mut cw = rs.encode(&data);
        let report = rs.decode(&mut cw, &[]).unwrap();
        assert_eq!(report.total(), 0);
        assert_eq!(&cw[..100], &data[..]);
    }

    #[test]
    fn corrects_up_to_capacity_errors() {
        let rs = ReedSolomon::new(16).unwrap();
        let data = sample_data(120, 3);
        for nerr in 1..=8 {
            let mut cw = rs.encode(&data);
            let len = cw.len();
            for e in 0..nerr {
                cw[e * 13 % len] ^= 0x3c + e as u8;
            }
            let report = rs.decode(&mut cw, &[]).unwrap();
            assert_eq!(report.corrected_errors, nerr, "nerr {nerr}");
            assert_eq!(&cw[..120], &data[..]);
        }
    }

    #[test]
    fn rejects_more_than_capacity_errors() {
        let rs = ReedSolomon::new(8).unwrap();
        let data = sample_data(64, 4);
        let mut cw = rs.encode(&data);
        // 5 errors with t = 4: must not silently mis-correct.
        for e in 0..5 {
            cw[e * 7] ^= 0xa1 + e as u8;
        }
        assert!(rs.decode(&mut cw, &[]).is_err());
    }

    #[test]
    fn corrects_full_erasure_budget() {
        let rs = ReedSolomon::new(8).unwrap();
        let data = sample_data(60, 5);
        let mut cw = rs.encode(&data);
        let erasures: Vec<usize> = (0..8).map(|i| i * 5).collect();
        for &e in &erasures {
            cw[e] = 0;
        }
        let report = rs.decode(&mut cw, &erasures).unwrap();
        assert_eq!(&cw[..60], &data[..]);
        // Erasures whose stored value happened to be 0 already need no fix,
        // so only count the ones actually repaired.
        assert!(report.total() <= 8);
    }

    #[test]
    fn corrects_mixed_errors_and_erasures() {
        // 2e + f <= nroots: with nroots = 8, 2 errors + 4 erasures = 8.
        let rs = ReedSolomon::new(8).unwrap();
        let data = sample_data(80, 6);
        let mut cw = rs.encode(&data);
        let erasures = [3usize, 17, 31, 45];
        for &e in &erasures {
            cw[e] ^= 0xff;
        }
        cw[60] ^= 0x01;
        cw[70] ^= 0x80;
        let report = rs.decode(&mut cw, &erasures).unwrap();
        assert_eq!(&cw[..80], &data[..]);
        assert_eq!(report.corrected_erasures, 4);
        assert_eq!(report.corrected_errors, 2);
    }

    #[test]
    fn erasures_in_parity_region_corrected() {
        let rs = ReedSolomon::new(8).unwrap();
        let data = sample_data(40, 7);
        let mut cw = rs.encode(&data);
        let last = cw.len() - 1;
        cw[last] ^= 0x42;
        let report = rs.decode(&mut cw, &[last]).unwrap();
        assert_eq!(report.corrected_erasures, 1);
        assert_eq!(&cw[..40], &data[..]);
    }

    #[test]
    fn duplicate_erasure_indices_tolerated() {
        let rs = ReedSolomon::new(8).unwrap();
        let data = sample_data(40, 8);
        let mut cw = rs.encode(&data);
        cw[5] ^= 0x10;
        let report = rs.decode(&mut cw, &[5, 5, 5]).unwrap();
        assert_eq!(report.total(), 1);
        assert_eq!(&cw[..40], &data[..]);
    }

    #[test]
    fn bad_parameters_rejected() {
        assert!(ReedSolomon::new(0).is_err());
        assert!(ReedSolomon::new(255).is_err());
        assert!(ReedSolomon::new(254).is_ok());
    }

    #[test]
    fn message_too_long_rejected() {
        let rs = ReedSolomon::new(8).unwrap();
        assert!(matches!(
            rs.try_encode(&vec![0u8; 248]),
            Err(RsError::MessageTooLong { .. })
        ));
        assert!(rs.try_encode(&vec![0u8; 247]).is_ok());
    }

    #[test]
    fn bad_erasure_index_rejected() {
        let rs = ReedSolomon::new(4).unwrap();
        let mut cw = rs.encode(&sample_data(10, 9));
        assert!(matches!(
            rs.decode(&mut cw, &[99]),
            Err(RsError::BadErasure { index: 99, .. })
        ));
    }

    #[test]
    fn burst_error_within_capacity() {
        let rs = ReedSolomon::new(16).unwrap();
        let data = sample_data(200, 10);
        let mut cw = rs.encode(&data);
        for byte in &mut cw[50..58] {
            *byte = !*byte;
        }
        rs.decode(&mut cw, &[]).unwrap();
        assert_eq!(&cw[..200], &data[..]);
    }

    #[test]
    fn max_length_codeword() {
        let rs = ReedSolomon::new(32).unwrap();
        let data = sample_data(223, 11);
        let mut cw = rs.encode(&data);
        assert_eq!(cw.len(), 255);
        for i in 0..16 {
            cw[i * 15] ^= 0x77;
        }
        rs.decode(&mut cw, &[]).unwrap();
        assert_eq!(&cw[..223], &data[..]);
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            RsError::BadParameters { nroots: 0 },
            RsError::MessageTooLong {
                data_len: 9,
                max: 3,
            },
            RsError::BadErasure { index: 1, len: 1 },
            RsError::TooManyErrors,
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }
}
