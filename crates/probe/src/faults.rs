//! Deterministic, seeded fault injection at the probe-device choke
//! points.
//!
//! Every magnetic sector transfer on a [`crate::device::ProbeDevice`] —
//! single ops and the extent batch sweeps alike — funnels through two
//! `pub(crate)` sector primitives, `read_sector_here` (`mrs`) and
//! `write_sector_here` (`mws`), and every sled move through `seek_block`.
//! The electrical primitives `ers_cells_here` and `ews_here`, which the
//! escan sweeps stream over, meet faults only at `seek_block`: what they
//! find is data in a `Scan`, never an error. A [`FaultPlan`] armed on the
//! device ([`crate::device::ProbeDevice::arm_faults`]) injects faults at
//! exactly those choke points, after the physical transfer whichever
//! sensing path (per dot, or a word at a time on an exact channel) it
//! took, so the device, file-system, and server layers
//! above are exercised *untouched by construction*: they see the same
//! typed [`SectorError`]s and degraded [`crate::device::WriteReport`]s real hardware
//! would produce, never a special test path.
//!
//! The plan owns its **own** [`StdRng`], seeded independently of the
//! device's channel-noise stream. Two devices built with the same seed —
//! one with a plan armed, one without — therefore stay comparable: the
//! fault draws never perturb what the fault-free twin reads, and an
//! identical plan replays the identical fault schedule.
//!
//! Fault classes (the §5-adjacent hardware misbehaviour the paper's
//! "tamper evidence, never silence" guarantee must survive):
//!
//! * **Transient read faults** — a sector read fails with a typed
//!   [`SectorError`] for [`FaultPlan::transient_depth`] consecutive
//!   attempts, then recovers: the model of channel noise and marginal
//!   dots. Rate-driven via [`FaultPlan::read_fault_ppm`]. The *real* read
//!   still happens first (clock, counters, and channel RNG advance
//!   exactly as on the twin); only its result is discarded.
//! * **Transient write faults** — a write completes but reports phantom
//!   unwritable dots ([`FaultPlan::write_fault_ppm`]), the shape heat
//!   damage takes in [`WriteReport`](crate::device::WriteReport).
//! * **Torn sweeps** — emerge for free: a per-sector fault inside an
//!   extent sweep aborts the batch mid-run exactly where a real bad
//!   block would.
//! * **Sled stalls** — [`FaultPlan::stall_ppm`] of seeks cost an extra
//!   [`FaultPlan::stall_ns`] of device time (a sticking µWalker step).
//! * **Dead blocks** — [`FaultPlan::dead_reads`] fail every read until
//!   disarmed: the persistent failure that must end in quarantine, not a
//!   wedge.
//! * **Flaky blocks** — [`FaultPlan::flaky_reads`] fail a fixed number
//!   of read attempts, then recover: the deterministic transient used to
//!   pin retry-budget behaviour exactly.
//! * **Stuck-at dots** — [`FaultPlan::stuck_writes`] report a fixed
//!   phantom unwritable-dot count on every write of a block.
//! * **Bit rot** — [`FaultPlan::bit_rot`] flips the magnetisation of
//!   chosen data-area dots once, at arm time: silent medium decay that
//!   only the paper's verify protocol can catch.

use crate::sector::SectorError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// One part per million — rates in a [`FaultPlan`] are expressed in ppm
/// so integer plans stay hashable, comparable, and exactly serializable.
pub const PPM: u32 = 1_000_000;

/// A seeded, schedulable description of hardware misbehaviour. See the
/// [module docs](self) for the fault classes.
///
/// The default plan injects nothing; builder-style setters opt into each
/// class. Arm it with [`crate::device::ProbeDevice::arm_faults`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the plan's private RNG (independent of the device seed).
    pub seed: u64,
    /// Probability (ppm) that a sector read triggers a transient fault.
    pub read_fault_ppm: u32,
    /// Probability (ppm) that a sector write reports phantom unwritable
    /// dots.
    pub write_fault_ppm: u32,
    /// Phantom unwritable dots reported per transient write fault.
    pub write_fault_dots: usize,
    /// Consecutive failures a triggered transient read fault injects
    /// before the block recovers (1 = a single re-read succeeds).
    pub transient_depth: u32,
    /// Probability (ppm) that a seek stalls the sled.
    pub stall_ppm: u32,
    /// Extra device time per stalled seek.
    pub stall_ns: u64,
    /// Blocks whose every read fails until the plan is disarmed.
    pub dead_reads: BTreeSet<u64>,
    /// Blocks whose next N read attempts fail, then recover — the
    /// deterministic transient fault (rate-driven faults re-draw on
    /// every attempt; these count down and stop).
    pub flaky_reads: BTreeMap<u64, u32>,
    /// Blocks reporting a fixed phantom unwritable-dot count per write.
    pub stuck_writes: BTreeMap<u64, usize>,
    /// `(pba, data-area dot offset)` pairs whose magnetisation is
    /// flipped once when the plan is armed.
    pub bit_rot: Vec<(u64, u32)>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0xFA17_0001,
            read_fault_ppm: 0,
            write_fault_ppm: 0,
            write_fault_dots: 48,
            transient_depth: 1,
            stall_ppm: 0,
            stall_ns: 0,
            dead_reads: BTreeSet::new(),
            flaky_reads: BTreeMap::new(),
            stuck_writes: BTreeMap::new(),
            bit_rot: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A plan injecting nothing (the explicit fault-free twin).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Seeds the plan's private RNG.
    pub fn seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// Transient read faults at `ppm`, each lasting `depth` consecutive
    /// attempts.
    pub fn transient_reads(mut self, ppm: u32, depth: u32) -> FaultPlan {
        self.read_fault_ppm = ppm;
        self.transient_depth = depth.max(1);
        self
    }

    /// Transient write faults at `ppm`, each reporting `dots` phantom
    /// unwritable dots.
    pub fn transient_writes(mut self, ppm: u32, dots: usize) -> FaultPlan {
        self.write_fault_ppm = ppm;
        self.write_fault_dots = dots.max(1);
        self
    }

    /// Sled stalls at `ppm`, each costing `ns` extra device time.
    pub fn stalls(mut self, ppm: u32, ns: u64) -> FaultPlan {
        self.stall_ppm = ppm;
        self.stall_ns = ns;
        self
    }

    /// Marks `pba` dead for reads (persistent until disarm).
    pub fn dead_read(mut self, pba: u64) -> FaultPlan {
        self.dead_reads.insert(pba);
        self
    }

    /// Fails the next `attempts` reads of `pba`, after which it recovers
    /// for good — a transient fault with a deterministic lifetime.
    pub fn flaky_read(mut self, pba: u64, attempts: u32) -> FaultPlan {
        self.flaky_reads.insert(pba, attempts.max(1));
        self
    }

    /// Marks `pba` stuck for writes: every write reports `dots` phantom
    /// unwritable dots (persistent until disarm).
    pub fn stuck_write(mut self, pba: u64, dots: usize) -> FaultPlan {
        self.stuck_writes.insert(pba, dots.max(1));
        self
    }

    /// Flips the magnetisation of `pba`'s data-area dot `offset` once at
    /// arm time.
    pub fn rot_dot(mut self, pba: u64, offset: u32) -> FaultPlan {
        self.bit_rot.push((pba, offset));
        self
    }

    /// True when the plan can never inject anything.
    pub fn is_noop(&self) -> bool {
        self.read_fault_ppm == 0
            && self.write_fault_ppm == 0
            && self.stall_ppm == 0
            && self.dead_reads.is_empty()
            && self.flaky_reads.is_empty()
            && self.stuck_writes.is_empty()
            && self.bit_rot.is_empty()
    }
}

/// Counters of what an armed plan actually injected — read back through
/// [`crate::device::ProbeDevice::fault_stats`] by tests and benchmarks
/// calibrating fault rates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Sector reads that returned an injected error.
    pub read_faults: u64,
    /// Sector writes that reported injected phantom unwritable dots.
    pub write_faults: u64,
    /// Seeks that stalled.
    pub stalls: u64,
    /// Dots flipped by bit rot at arm time.
    pub rotted_dots: u64,
}

/// Live injection state: the plan, its private RNG, and the per-block
/// countdown of in-flight transient faults.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: StdRng,
    /// Remaining consecutive read failures per block with a transient
    /// fault in flight.
    pending_reads: BTreeMap<u64, u32>,
    stats: FaultStats,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> FaultState {
        let rng = StdRng::seed_from_u64(plan.seed);
        // Flaky blocks are pre-seeded countdowns: they share the pending
        // machinery rate-triggered transients use, minus the re-draw.
        let pending_reads = plan.flaky_reads.clone();
        FaultState {
            plan,
            rng,
            pending_reads,
            stats: FaultStats::default(),
        }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub(crate) fn stats(&self) -> FaultStats {
        self.stats
    }

    pub(crate) fn note_rotted(&mut self, dots: u64) {
        self.stats.rotted_dots += dots;
    }

    fn draw(&mut self, ppm: u32) -> bool {
        // One RNG draw per decision keeps the schedule a pure function
        // of (plan, operation sequence) — reproducible across runs.
        ppm > 0 && self.rng.random_range(0..PPM) < ppm
    }

    /// Fault decision for a sector read of `pba`. The injected error is
    /// typed exactly like the real failure it models.
    pub(crate) fn on_read(&mut self, pba: u64) -> Option<SectorError> {
        if self.plan.dead_reads.contains(&pba) {
            self.stats.read_faults += 1;
            return Some(SectorError::Uncorrectable {
                codeword: 0,
                source: sero_codec::rs::RsError::TooManyErrors,
            });
        }
        if let Some(left) = self.pending_reads.get_mut(&pba) {
            *left -= 1;
            if *left == 0 {
                self.pending_reads.remove(&pba);
            }
            self.stats.read_faults += 1;
            return Some(injected_read_error(pba));
        }
        if self.draw(self.plan.read_fault_ppm) {
            if self.plan.transient_depth > 1 {
                self.pending_reads
                    .insert(pba, self.plan.transient_depth - 1);
            }
            self.stats.read_faults += 1;
            return Some(injected_read_error(pba));
        }
        None
    }

    /// Phantom unwritable dots to add to a write of `pba` (0 = no fault).
    pub(crate) fn on_write(&mut self, pba: u64) -> usize {
        if let Some(&dots) = self.plan.stuck_writes.get(&pba) {
            self.stats.write_faults += 1;
            return dots;
        }
        if self.draw(self.plan.write_fault_ppm) {
            self.stats.write_faults += 1;
            return self.plan.write_fault_dots;
        }
        0
    }

    /// Extra device time this seek costs (0 = no stall).
    pub(crate) fn on_seek(&mut self) -> u64 {
        if self.plan.stall_ns > 0 && self.draw(self.plan.stall_ppm) {
            self.stats.stalls += 1;
            return self.plan.stall_ns;
        }
        0
    }
}

/// The typed shape of an injected transient read fault: a CRC check
/// tripped by channel noise. Distinctive constants make injected errors
/// recognisable in logs without a side channel.
fn injected_read_error(pba: u64) -> SectorError {
    SectorError::CrcMismatch {
        stored: 0xFA17_FA17,
        computed: pba as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_noop_and_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_noop());
        let mut state = FaultState::new(plan);
        for pba in 0..1000 {
            assert_eq!(state.on_read(pba), None);
            assert_eq!(state.on_write(pba), 0);
            assert_eq!(state.on_seek(), 0);
        }
        assert_eq!(state.stats(), FaultStats::default());
    }

    #[test]
    fn same_seed_replays_the_same_schedule() {
        let plan = FaultPlan::none()
            .seed(7)
            .transient_reads(200_000, 2)
            .transient_writes(100_000, 5)
            .stalls(300_000, 1_000);
        let mut a = FaultState::new(plan.clone());
        let mut b = FaultState::new(plan);
        for pba in 0..500 {
            assert_eq!(a.on_read(pba % 16), b.on_read(pba % 16));
            assert_eq!(a.on_write(pba % 16), b.on_write(pba % 16));
            assert_eq!(a.on_seek(), b.on_seek());
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().read_faults > 0, "rate high enough to fire");
        assert!(a.stats().stalls > 0);
    }

    #[test]
    fn transient_depth_counts_down_then_recovers() {
        // Force a trigger on the first read with a certain rate, then
        // check the countdown applies to the same block only.
        let plan = FaultPlan::none().transient_reads(PPM, 3);
        let mut state = FaultState::new(plan);
        assert!(state.on_read(4).is_some(), "depth 1/3");
        // The countdown is per-block and fires before any new draw.
        assert!(state.on_read(4).is_some(), "depth 2/3");
        assert!(state.on_read(4).is_some(), "depth 3/3");
        // At ppm == PPM every fresh draw also fires, so use a separate
        // state to show recovery with a 0 rate after the trigger.
        let mut once = FaultState::new(FaultPlan::none().transient_reads(PPM, 2));
        assert!(once.on_read(9).is_some());
        once.plan.read_fault_ppm = 0;
        assert!(once.on_read(9).is_some(), "countdown survives rate change");
        assert_eq!(once.on_read(9), None, "block recovered");
    }

    #[test]
    fn flaky_blocks_fail_exactly_n_attempts_then_recover() {
        let mut state = FaultState::new(FaultPlan::none().flaky_read(6, 2));
        assert!(state.on_read(6).is_some(), "attempt 1 fails");
        assert_eq!(state.on_read(5), None, "other blocks untouched");
        assert!(state.on_read(6).is_some(), "attempt 2 fails");
        assert_eq!(state.on_read(6), None, "recovered for good");
        assert_eq!(state.on_read(6), None);
        assert_eq!(state.stats().read_faults, 2);
    }

    #[test]
    fn dead_and_stuck_blocks_fail_every_time() {
        let plan = FaultPlan::none().dead_read(3).stuck_write(5, 7);
        let mut state = FaultState::new(plan);
        for _ in 0..10 {
            assert!(state.on_read(3).is_some());
            assert_eq!(state.on_write(5), 7);
        }
        assert_eq!(state.on_read(4), None);
        assert_eq!(state.on_write(4), 0);
        assert_eq!(state.stats().read_faults, 10);
        assert_eq!(state.stats().write_faults, 10);
    }
}
