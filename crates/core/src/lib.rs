//! SERO core — the primary contribution of *Towards Tamper-evident Storage
//! on Patterned Media* (FAST 2008) as a library.
//!
//! A **SERO** (Selectively Eventually Read-Only) device "begins life as a
//! Write Many Read Many device, selected parts of which are subjected to
//! Write Once operations, and which ends life as a Read-only device". This
//! crate implements that device on top of the simulated probe-storage
//! substrate:
//!
//! * [`mod@line`] — 2^N-aligned lines, the unit of the heat operation.
//! * [`layout`] — the Figure 3 hash-block record: Manchester-encoded
//!   SHA-256 plus self-describing metadata in block 0's electrical area.
//! * [`device`] — [`device::SeroDevice`]: protocol-checked block I/O,
//!   `heat_line`, `verify_line`, and registry recovery by medium scan.
//! * [`tamper`] — evidence-carrying verification verdicts for §5's attack
//!   analysis.
//! * [`badblock`] — classification that never mistakes a heated block for
//!   a bad one (§3's addressing discussion).
//! * [`faults`] — bounded-retry policy over the seeded fault-injection
//!   plans of [`sero_probe::faults`]; persistently failing blocks move to
//!   quarantine (suspect + flagged) instead of wedging the device.
//! * [`scrub`] — whole-device verification of every heated line, sharded
//!   over parallel workers (the §5.2 fsck argument made routine).
//! * [`sched`] — background scrub scheduling under live foreground
//!   traffic: budget-bounded slices, pause/resume/cancel, quantum duty
//!   cycling.
//! * [`fleet`] — scrub orchestration across many devices: staggered
//!   passes, one adaptively re-divided global budget, suspicion-first
//!   ordering minimising detection latency.
//!
//! # Examples
//!
//! ```
//! use sero_core::prelude::*;
//!
//! // A database snapshot: write, freeze, verify.
//! let mut dev = SeroDevice::with_blocks(32);
//! let line = Line::new(16, 3)?; // 8 blocks: 1 hash + 7 data
//! for pba in line.data_blocks() {
//!     dev.write_block(pba, &[0xdb; 512])?;
//! }
//! dev.heat_line(line, b"snapshot 2008-01-01".to_vec(), 1_199_145_600)?;
//!
//! // Any later rewrite of the frozen data is detected.
//! dev.probe_mut().mws(17, &[0x00; 512])?; // attacker bypasses the protocol
//! assert!(dev.verify_line(line)?.is_tampered());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod badblock;
pub mod device;
pub mod faults;
pub mod fleet;
pub mod journal;
pub mod layout;
pub mod line;
pub mod locks;
pub mod sched;
pub mod scrub;
pub mod tamper;

pub use admission::{AdmissionQueues, AdmissionStats, FgOp, FgResult, RegionMap, Ticket};
pub use device::{LoadProbe, SeroDevice, SeroError};
pub use faults::{FaultPlan, FaultStats, RetryPolicy};
pub use fleet::{AdaptiveBudget, FleetConfig, FleetScheduler, FleetSliceOutcome};
pub use line::Line;
pub use locks::{LineLockTable, LineReadGuard, LineWriteGuard};
pub use sched::{
    SchedConfig, SchedConfigError, SchedProgress, SchedState, ScrubScheduler, SliceOutcome,
};
pub use scrub::{scrub_device, ScrubConfig, ScrubReport, ScrubSummary};
pub use tamper::{Evidence, TamperReport, VerifyOutcome};

/// Convenient re-exports of the types most users need.
pub mod prelude {
    pub use crate::admission::{
        AdmissionQueues, AdmissionStats, FgOp, FgResult, RegionMap, Ticket,
    };
    pub use crate::badblock::{classify_block, BlockClass};
    pub use crate::device::{LineRecord, LoadProbe, SeroDevice, SeroError, SeroStats};
    pub use crate::faults::{FaultPlan, FaultStats, RetryPolicy};
    pub use crate::fleet::{
        AdaptiveBudget, FleetConfig, FleetMemberState, FleetOrdering, FleetProgress,
        FleetScheduler, FleetSliceOutcome,
    };
    pub use crate::layout::HashBlockPayload;
    pub use crate::line::Line;
    pub use crate::locks::{LineLockTable, LineReadGuard, LineWriteGuard};
    pub use crate::sched::{
        SchedConfig, SchedConfigError, SchedProgress, SchedState, ScrubScheduler, SliceOutcome,
    };
    pub use crate::scrub::{scrub_device, ScrubConfig, ScrubReport, ScrubSummary};
    pub use crate::tamper::{Evidence, TamperReport, VerifyOutcome};
}

#[cfg(test)]
mod proptests {
    use crate::device::SeroDevice;
    use crate::line::Line;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// heat → verify is intact for any line and any data.
        #[test]
        fn heat_verify_round_trip(order in 1u32..4, start_slot in 0u64..4, fill in any::<u8>()) {
            let blocks = 64u64;
            let len = 1u64 << order;
            let start = (start_slot * len) % blocks;
            let line = Line::new(start, order).unwrap();
            let mut dev = SeroDevice::with_blocks(blocks);
            for pba in line.data_blocks() {
                dev.write_block(pba, &[fill; 512]).unwrap();
            }
            dev.heat_line(line, vec![], 0).unwrap();
            prop_assert!(dev.verify_line(line).unwrap().is_intact());
        }

        /// Any single-byte change to any data block of a heated line is
        /// detected by verify.
        #[test]
        fn any_byte_change_detected(byte_index in 0usize..512, xor in 1u8..=255, victim in 0u64..3) {
            let line = Line::new(0, 2).unwrap();
            let mut dev = SeroDevice::with_blocks(4);
            for pba in line.data_blocks() {
                dev.write_block(pba, &[0x11; 512]).unwrap();
            }
            dev.heat_line(line, vec![], 0).unwrap();

            let target = 1 + victim; // a data block
            let mut data = [0x11u8; 512];
            data[byte_index] ^= xor;
            dev.probe_mut().mws(target, &data).unwrap();

            let outcome = dev.verify_line(line).unwrap();
            prop_assert!(outcome.is_tampered(), "change escaped verification");
        }
    }
}
