//! Probe-storage device simulator — the µSPAM substrate of the SERO stack.
//!
//! The FAST 2008 paper builds its tamper-evident proposal on the Twente
//! Micro Scanning Probe Array Memory (µSPAM): a patterned magnetic medium
//! on a moving sled beneath an array of MFM probes. This crate models that
//! device faithfully enough to run the paper's protocols and reproduce its
//! timing relations:
//!
//! * [`timing`] — the simulated-clock cost model (erb = 5 bit ops ⇒ the
//!   paper's "at least 5 times slower"; heat pulses ≫ magnetic writes).
//! * [`actuator`] — the µWalker electrostatic stepper moving the sled.
//! * [`sector`] — 512-byte sectors with the ~15 % header/CRC/Reed–Solomon
//!   overhead of Pozidis et al., plus the electrical (Manchester) area.
//! * [`device`] — [`device::ProbeDevice`]: the four bit operations
//!   (`mrb`/`mwb`/`ewb`/`erb` with the five-step protocol) and the four
//!   sector operations (`mrs`/`mws`/`ers`/`ews`).
//! * [`extent`] — batched multi-block `read_blocks`/`write_blocks`: one
//!   seek per extent, settle-free streaming between adjacent tracks.
//! * [`escan`] — the electrical counterpart: bulk `ers_blocks_at`/
//!   `ews_blocks` sweeping gaps between scattered ascending targets
//!   without settling, and the `ers_sieve_blocks_with` prefix sieve
//!   registry scans run on — one sweep per extent, candidates escalated
//!   to a full scan in place.
//! * `sense` — how the sector primitives sense a run of dots: per dot
//!   through the read channel, or a word at a time on a channel whose
//!   decisions noise cannot change, with the same RNG stream.
//! * [`faults`] — deterministic, seeded fault injection at the sector
//!   choke points: transient/persistent read and write faults, sled
//!   stalls, and bit rot, armed via `ProbeDevice::arm_faults`.
//!
//! # Examples
//!
//! ```
//! use sero_probe::device::ProbeDevice;
//!
//! let mut dev = ProbeDevice::builder().blocks(8).seed(1).build();
//! // Store data magnetically, burn a hash electrically.
//! dev.mws(0, &[7u8; 512])?;
//! dev.ews(1, &[true, false, true])?;
//! let scan = dev.ers(1)?;
//! assert!(scan.tampered_cells().is_empty());
//! # Ok::<(), sero_probe::sector::SectorError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actuator;
pub mod device;
pub mod escan;
pub mod extent;
pub mod faults;
pub mod sector;
mod sense;
pub mod timing;

pub use device::{DotProbe, EwsReport, ProbeDevice, ProbeDeviceBuilder, WriteReport};
pub use faults::{FaultPlan, FaultStats};
pub use sector::{DecodedSector, SectorError, SECTOR_DATA_BYTES};

#[cfg(test)]
mod proptests {
    use crate::device::ProbeDevice;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any payload written to any block reads back identically.
        #[test]
        fn sector_round_trip(seed in any::<u64>(), pba in 0u64..8, data in proptest::collection::vec(any::<u8>(), 512)) {
            let mut dev = ProbeDevice::builder().blocks(8).seed(seed).build();
            let buf: [u8; 512] = data.try_into().unwrap();
            dev.mws(pba, &buf).unwrap();
            prop_assert_eq!(dev.mrs(pba).unwrap().data, buf);
        }

        /// Overwrites win: the last write is what reads back.
        #[test]
        fn last_write_wins(pba in 0u64..4, a in any::<u8>(), b in any::<u8>()) {
            let mut dev = ProbeDevice::builder().blocks(4).build();
            dev.mws(pba, &[a; 512]).unwrap();
            dev.mws(pba, &[b; 512]).unwrap();
            prop_assert_eq!(dev.mrs(pba).unwrap().data, [b; 512]);
        }

        /// ews/ers round-trips arbitrary bit patterns and reports no
        /// tampering for single writes.
        #[test]
        fn electrical_round_trip(bits in proptest::collection::vec(any::<bool>(), 1..512)) {
            let mut dev = ProbeDevice::builder().blocks(2).build();
            dev.ews(1, &bits).unwrap();
            let scan = dev.ers(1).unwrap();
            prop_assert!(scan.tampered_cells().is_empty());
            let decoded: Vec<bool> = scan.cells()[..bits.len()]
                .iter()
                .map(|c| c.value().unwrap())
                .collect();
            prop_assert_eq!(decoded, bits);
        }
    }
}
