//! The on-medium sector format: 512 data bytes plus ~15 % overhead.
//!
//! Following Pozidis et al. (adopted by the paper's §3), a sector carries
//! 512 bytes of payload and "about 15 % sector overhead for the sector
//! header, error correction, and cyclic redundancy check":
//!
//! ```text
//! | header 16 B | data 512 B | CRC-32 4 B | RS parity 56 B |  = 588 B
//! ```
//!
//! 588 / 512 = 1.148 — the paper's 15 %. The 532 protected bytes (header ‖
//! data ‖ CRC) are striped over four interleaved Reed–Solomon codewords of
//! 133 data + 14 parity symbols each, so a burst of damaged dots (e.g. the
//! collateral of a sloppy heat pulse) spreads across codewords, and each
//! codeword corrects 7 unknown errors or 14 erasures.
//!
//! The 512-byte data area doubles as the **electrical area**: when a block
//! is used for a heated hash (Figure 3), its 4096 data-area dots hold 2048
//! Manchester cells instead of magnetic bytes. Electrical data is protected
//! by the Manchester code and physical verification, not by RS — parity
//! would be unwritable once the dots are destroyed.
//!
//! # Examples
//!
//! ```
//! use sero_probe::sector::{SectorCodec, SECTOR_DATA_BYTES};
//!
//! let codec = SectorCodec::new();
//! let data = [0xabu8; SECTOR_DATA_BYTES];
//! let encoded = codec.encode(42, &data);
//! assert_eq!(encoded.len(), sero_probe::sector::SECTOR_TOTAL_BYTES);
//! let decoded = codec.decode(42, &encoded, &[]).unwrap();
//! assert_eq!(decoded.data, data);
//! ```

use core::fmt;
use sero_codec::crc32;
use sero_codec::rs::{ReedSolomon, RsError};

/// Payload bytes per sector.
pub const SECTOR_DATA_BYTES: usize = 512;

/// Header bytes: magic (2) ‖ flags (2) ‖ PBA (8) ‖ reserved (4).
pub const SECTOR_HEADER_BYTES: usize = 16;

/// CRC-32 bytes.
pub const SECTOR_CRC_BYTES: usize = 4;

/// Number of interleaved Reed–Solomon codewords.
pub const INTERLEAVE: usize = 4;

/// Parity symbols per codeword.
pub const RS_PARITY: usize = 14;

/// Protected bytes (header ‖ data ‖ CRC).
pub const SECTOR_PROTECTED_BYTES: usize =
    SECTOR_HEADER_BYTES + SECTOR_DATA_BYTES + SECTOR_CRC_BYTES;

/// Total encoded bytes per sector.
pub const SECTOR_TOTAL_BYTES: usize = SECTOR_PROTECTED_BYTES + INTERLEAVE * RS_PARITY;

/// Total dots per sector (8 dots per byte).
pub const SECTOR_DOTS: usize = SECTOR_TOTAL_BYTES * 8;

/// Dot offset of the first data byte within the sector footprint.
pub const DATA_AREA_FIRST_DOT: usize = SECTOR_HEADER_BYTES * 8;

/// Number of dots in the data (= electrical) area.
pub const DATA_AREA_DOTS: usize = SECTOR_DATA_BYTES * 8;

/// Manchester cells available in the electrical area of one block.
pub const ELECTRICAL_CELLS: usize = DATA_AREA_DOTS / 2;

/// Sector magic number ("SE" as it appears in a hex dump).
pub const SECTOR_MAGIC: u16 = 0x5E20;

/// Errors surfaced by sector encode/decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SectorError {
    /// A Reed–Solomon codeword could not be corrected.
    Uncorrectable {
        /// Which interleave lane failed.
        codeword: usize,
        /// The underlying decoder error.
        source: RsError,
    },
    /// The CRC over header ‖ data failed after ECC claimed success.
    CrcMismatch {
        /// CRC stored on the medium.
        stored: u32,
        /// CRC computed from the decoded bytes.
        computed: u32,
    },
    /// The decoded header does not carry the expected physical address —
    /// the §5.1 splitting/coalescing defence relies on this check.
    AddressMismatch {
        /// PBA the caller asked for.
        expected: u64,
        /// PBA found in the header.
        found: u64,
    },
    /// The header magic is wrong: the block was never formatted (or the
    /// header area was destroyed).
    BadMagic {
        /// The magic found.
        found: u16,
    },
    /// The physical block address is outside the device.
    OutOfRange {
        /// The rejected address.
        pba: u64,
        /// Number of blocks on the device.
        blocks: u64,
    },
    /// A magnetic write could not be completed because too many dots in
    /// the sector footprint are heated.
    WriteBlocked {
        /// The block whose write was refused.
        pba: u64,
        /// Number of unwritable (heated) dots.
        heated_dots: usize,
    },
}

impl fmt::Display for SectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SectorError::Uncorrectable { codeword, source } => {
                write!(f, "codeword {codeword} uncorrectable: {source}")
            }
            SectorError::CrcMismatch { stored, computed } => {
                write!(
                    f,
                    "crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            SectorError::AddressMismatch { expected, found } => {
                write!(
                    f,
                    "header address {found} does not match physical address {expected}"
                )
            }
            SectorError::BadMagic { found } => write!(f, "bad sector magic {found:#06x}"),
            SectorError::OutOfRange { pba, blocks } => {
                write!(f, "block {pba} outside device of {blocks} blocks")
            }
            SectorError::WriteBlocked { pba, heated_dots } => {
                write!(
                    f,
                    "write to block {pba} blocked by {heated_dots} heated dots in sector footprint"
                )
            }
        }
    }
}

impl std::error::Error for SectorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SectorError::Uncorrectable { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A decoded sector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedSector {
    /// The 512 payload bytes.
    pub data: [u8; SECTOR_DATA_BYTES],
    /// Sector flags from the header.
    pub flags: u16,
    /// Symbols repaired by the ECC across all codewords.
    pub corrected_symbols: usize,
    /// Byte positions that arrived as erasures (any weak dot in the byte).
    pub erased_bytes: usize,
}

/// Encoder/decoder for the 588-byte sector format.
#[derive(Debug, Clone)]
pub struct SectorCodec {
    rs: ReedSolomon,
}

impl Default for SectorCodec {
    fn default() -> SectorCodec {
        SectorCodec::new()
    }
}

impl SectorCodec {
    /// Creates the standard codec (RS with 14 parity symbols, 4-way
    /// interleave).
    pub fn new() -> SectorCodec {
        SectorCodec {
            rs: ReedSolomon::new(RS_PARITY).expect("RS_PARITY is valid"),
        }
    }

    /// Encodes `data` for physical block `pba` with `flags = 0`.
    pub fn encode(&self, pba: u64, data: &[u8; SECTOR_DATA_BYTES]) -> Vec<u8> {
        self.encode_with_flags(pba, 0, data)
    }

    /// Encodes `data` for physical block `pba` carrying `flags`.
    pub fn encode_with_flags(
        &self,
        pba: u64,
        flags: u16,
        data: &[u8; SECTOR_DATA_BYTES],
    ) -> Vec<u8> {
        let mut protected = Vec::with_capacity(SECTOR_PROTECTED_BYTES);
        protected.extend_from_slice(&SECTOR_MAGIC.to_le_bytes());
        protected.extend_from_slice(&flags.to_le_bytes());
        protected.extend_from_slice(&pba.to_le_bytes());
        protected.extend_from_slice(&[0u8; 4]); // reserved
        protected.extend_from_slice(data);
        let crc = crc32::crc32(&protected);
        protected.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(protected.len(), SECTOR_PROTECTED_BYTES);

        // Stripe into INTERLEAVE codewords: byte i -> lane i % INTERLEAVE.
        let lane_len = SECTOR_PROTECTED_BYTES / INTERLEAVE;
        let mut out = protected.clone();
        out.resize(SECTOR_TOTAL_BYTES, 0);
        for lane in 0..INTERLEAVE {
            let lane_bytes: Vec<u8> = (0..lane_len)
                .map(|i| protected[i * INTERLEAVE + lane])
                .collect();
            let codeword = self.rs.encode(&lane_bytes);
            let parity = &codeword[lane_len..];
            let base = SECTOR_PROTECTED_BYTES + lane * RS_PARITY;
            out[base..base + RS_PARITY].copy_from_slice(parity);
        }
        out
    }

    /// Decodes a sector read back from the medium.
    ///
    /// `erased_bytes` lists byte offsets (0-based within the 588-byte
    /// footprint) whose dots produced weak read-back signals; these become
    /// Reed–Solomon erasures.
    ///
    /// # Errors
    ///
    /// See [`SectorError`]. The address check makes a sector readable only
    /// at the physical address it was written for.
    pub fn decode(
        &self,
        expected_pba: u64,
        raw: &[u8],
        erased_bytes: &[usize],
    ) -> Result<DecodedSector, SectorError> {
        assert_eq!(raw.len(), SECTOR_TOTAL_BYTES, "raw sector has fixed size");
        const LANE_LEN: usize = SECTOR_PROTECTED_BYTES / INTERLEAVE;

        let mut protected = [0u8; SECTOR_PROTECTED_BYTES];
        let mut corrected = 0usize;
        for lane in 0..INTERLEAVE {
            let mut codeword = [0u8; LANE_LEN + RS_PARITY];
            for (i, symbol) in codeword[..LANE_LEN].iter_mut().enumerate() {
                *symbol = raw[i * INTERLEAVE + lane];
            }
            let base = SECTOR_PROTECTED_BYTES + lane * RS_PARITY;
            codeword[LANE_LEN..].copy_from_slice(&raw[base..base + RS_PARITY]);

            // Map global byte erasures into this lane's codeword indices.
            // One more than the code can fill is enough: past RS_PARITY the
            // lane is uncorrectable whatever the rest are.
            let mut lane_erasures = [0usize; RS_PARITY + 1];
            let mut erasures = 0;
            for &e in erased_bytes {
                let index = if e < SECTOR_PROTECTED_BYTES {
                    (e % INTERLEAVE == lane).then_some(e / INTERLEAVE)
                } else {
                    let p = e - SECTOR_PROTECTED_BYTES;
                    (p / RS_PARITY == lane).then_some(LANE_LEN + (p % RS_PARITY))
                };
                if let Some(index) = index.filter(|_| erasures <= RS_PARITY) {
                    lane_erasures[erasures] = index;
                    erasures += 1;
                }
            }

            let report = self
                .rs
                .decode(&mut codeword, &lane_erasures[..erasures])
                .map_err(|source| SectorError::Uncorrectable {
                    codeword: lane,
                    source,
                })?;
            corrected += report.total();
            for (i, &b) in codeword[..LANE_LEN].iter().enumerate() {
                protected[i * INTERLEAVE + lane] = b;
            }
        }

        let magic = u16::from_le_bytes([protected[0], protected[1]]);
        if magic != SECTOR_MAGIC {
            return Err(SectorError::BadMagic { found: magic });
        }
        let flags = u16::from_le_bytes([protected[2], protected[3]]);
        let pba = u64::from_le_bytes(protected[4..12].try_into().expect("8 bytes"));
        let stored_crc = u32::from_le_bytes(
            protected[SECTOR_PROTECTED_BYTES - 4..]
                .try_into()
                .expect("4 bytes"),
        );
        let computed_crc = crc32::crc32(&protected[..SECTOR_PROTECTED_BYTES - 4]);
        if stored_crc != computed_crc {
            return Err(SectorError::CrcMismatch {
                stored: stored_crc,
                computed: computed_crc,
            });
        }
        if pba != expected_pba {
            return Err(SectorError::AddressMismatch {
                expected: expected_pba,
                found: pba,
            });
        }

        let mut data = [0u8; SECTOR_DATA_BYTES];
        data.copy_from_slice(
            &protected[SECTOR_HEADER_BYTES..SECTOR_HEADER_BYTES + SECTOR_DATA_BYTES],
        );
        Ok(DecodedSector {
            data,
            flags,
            corrected_symbols: corrected,
            erased_bytes: erased_bytes.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(seed: u8) -> [u8; SECTOR_DATA_BYTES] {
        let mut d = [0u8; SECTOR_DATA_BYTES];
        for (i, b) in d.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(7).wrapping_add(seed);
        }
        d
    }

    #[test]
    fn overhead_is_the_papers_15_percent() {
        let overhead = SECTOR_TOTAL_BYTES as f64 / SECTOR_DATA_BYTES as f64;
        assert!(
            (overhead - 1.148).abs() < 0.002,
            "sector overhead {overhead} should be ~15 %"
        );
        assert_eq!(SECTOR_TOTAL_BYTES, 588);
        assert_eq!(SECTOR_DOTS, 4704);
        assert_eq!(ELECTRICAL_CELLS, 2048);
    }

    #[test]
    fn round_trip_clean() {
        let codec = SectorCodec::new();
        let data = payload(1);
        let raw = codec.encode(7, &data);
        let decoded = codec.decode(7, &raw, &[]).unwrap();
        assert_eq!(decoded.data, data);
        assert_eq!(decoded.corrected_symbols, 0);
        assert_eq!(decoded.flags, 0);
    }

    #[test]
    fn flags_carried() {
        let codec = SectorCodec::new();
        let raw = codec.encode_with_flags(7, 0xbeef, &payload(2));
        assert_eq!(codec.decode(7, &raw, &[]).unwrap().flags, 0xbeef);
    }

    #[test]
    fn corrects_scattered_errors() {
        let codec = SectorCodec::new();
        let data = payload(3);
        let mut raw = codec.encode(9, &data);
        // 7 errors per lane is the limit; spread 20 errors over the sector.
        let len = raw.len();
        for i in 0..20 {
            raw[i * 29 % len] ^= 0x40 | i as u8;
        }
        let decoded = codec.decode(9, &raw, &[]).unwrap();
        assert_eq!(decoded.data, data);
        assert!(
            decoded.corrected_symbols >= 18,
            "{}",
            decoded.corrected_symbols
        );
    }

    #[test]
    fn corrects_burst_via_interleave() {
        let codec = SectorCodec::new();
        let data = payload(4);
        let mut raw = codec.encode(11, &data);
        // A 24-byte contiguous burst = 6 symbols per lane, within t = 7.
        for b in raw.iter_mut().skip(100).take(24) {
            *b = !*b;
        }
        assert_eq!(codec.decode(11, &raw, &[]).unwrap().data, data);
    }

    #[test]
    fn erasures_double_the_budget() {
        let codec = SectorCodec::new();
        let data = payload(5);
        let mut raw = codec.encode(13, &data);
        // 48 erased bytes = 12 per lane, within the 14-erasure budget but
        // far beyond the 7-error budget.
        let erased: Vec<usize> = (0..48).map(|i| i + 64).collect();
        for &e in &erased {
            raw[e] = 0xee;
        }
        assert!(
            codec.decode(13, &raw, &[]).is_err(),
            "without flags: too many"
        );
        let decoded = codec.decode(13, &raw, &erased).unwrap();
        assert_eq!(decoded.data, data);
        assert_eq!(decoded.erased_bytes, 48);
    }

    #[test]
    fn parity_region_erasures_mapped_to_lanes() {
        let codec = SectorCodec::new();
        let data = payload(6);
        let mut raw = codec.encode(15, &data);
        // Kill parity bytes of lane 2 (positions 560..574).
        let erased: Vec<usize> = (0..10)
            .map(|i| SECTOR_PROTECTED_BYTES + 2 * RS_PARITY + i)
            .collect();
        for &e in &erased {
            raw[e] ^= 0xff;
        }
        assert_eq!(codec.decode(15, &raw, &erased).unwrap().data, data);
    }

    #[test]
    fn wrong_address_detected() {
        // §5.1: hashes (and sectors) must live at known physical addresses;
        // a sector copied elsewhere must not read as genuine.
        let codec = SectorCodec::new();
        let raw = codec.encode(21, &payload(7));
        match codec.decode(22, &raw, &[]) {
            Err(SectorError::AddressMismatch {
                expected: 22,
                found: 21,
            }) => {}
            other => panic!("expected address mismatch, got {other:?}"),
        }
    }

    #[test]
    fn unformatted_sector_rejected() {
        let codec = SectorCodec::new();
        // All-zero dots: lanes decode (zero codeword is valid), but the
        // magic is absent.
        let raw = vec![0u8; SECTOR_TOTAL_BYTES];
        match codec.decode(0, &raw, &[]) {
            Err(SectorError::BadMagic { found: 0 }) => {}
            other => panic!("expected bad magic, got {other:?}"),
        }
    }

    #[test]
    fn too_much_damage_is_an_error_not_garbage() {
        let codec = SectorCodec::new();
        let mut raw = codec.encode(3, &payload(8));
        for b in raw.iter_mut().take(200) {
            *b = 0xaa;
        }
        assert!(codec.decode(3, &raw, &[]).is_err());
    }

    #[test]
    fn error_display_nonempty() {
        let errors = [
            SectorError::CrcMismatch {
                stored: 1,
                computed: 2,
            },
            SectorError::AddressMismatch {
                expected: 1,
                found: 2,
            },
            SectorError::BadMagic { found: 7 },
            SectorError::OutOfRange { pba: 9, blocks: 4 },
            SectorError::WriteBlocked {
                pba: 6,
                heated_dots: 3,
            },
        ];
        for e in errors {
            assert!(!format!("{e}").is_empty());
        }
    }
}
