//! Fleet-wide scrub orchestration: staggered, adaptively budgeted
//! background passes across many devices.
//!
//! A single device's [`crate::sched::ScrubScheduler`] makes one pass
//! polite; a *store* is a fleet of devices, and the paper's
//! tamper-evidence guarantee is fleet-wide — an attacker only needs one
//! device whose last verified pass is stale. The security metric is
//! therefore **detection latency**: the device time between tampering and
//! the verified pass that surfaces it. [`FleetScheduler`] minimises it
//! three ways:
//!
//! * **Staggered passes** — at most
//!   [`FleetConfig::max_concurrent`] devices run full passes at once, the
//!   way Venti-style archival stores rotate verification across arenas
//!   instead of lighting up every spindle simultaneously. The rest wait
//!   in priority order and are admitted as slots free up, so aggregate
//!   scrub load on the backing fabric stays bounded while every pass
//!   still completes.
//! * **A shared global budget** — one fleet-wide scrub allowance per
//!   scheduling quantum, *re-divided on every retune* across the active
//!   devices: the grant walk follows the fleet's priority order and
//!   stops when the global allowance runs out, so the sum of per-device
//!   budgets can never exceed the cap (the interleaving property tests
//!   pin this invariant).
//! * **Suspicion-first ordering** — devices carrying *flagged* lines
//!   (tamper evidence, refused protocol accesses) outrank clean ones:
//!   their passes are admitted first and their budget grants are filled
//!   first, so the flagged device's pass finishes before any clean
//!   peer's and the detection latency for the device most likely to be
//!   under attack is the fleet's minimum, not its maximum.
//!
//! Budgets come from measurement, not static knobs: each device's
//! [`crate::device::LoadProbe`] tracks EWMA foreground inter-arrival gaps
//! and busy time, and the [`AdaptiveBudget`] controller converts the
//! observed idle fraction into that device's per-quantum scrub budget —
//! scrub soaks up the idle time that actually exists, instead of a duty
//! cycle someone guessed at deploy time.
//!
//! Each member pass is an ordinary [`ScrubScheduler`], so everything
//! PR 4 proved still holds per device: slices end at line boundaries,
//! pause/resume/cancel work between slices, a cancelled pass never
//! advances the completed epoch, and evidence is byte-identical to an
//! exclusive pass (`tests/fleet_props.rs` extends that equivalence to
//! arbitrary cross-device interleavings). Fleet slices run through
//! [`ScrubScheduler::run_slice`]: the fleet driver owns its member
//! devices exclusively between foreground phases, just as a device served
//! through `sero-fs`'s `ConcurrentFs` is owned by the window holding its
//! mutex — see the concurrency model in `docs/ARCHITECTURE.md`.
//!
//! # Examples
//!
//! ```
//! use sero_core::device::SeroDevice;
//! use sero_core::fleet::{FleetConfig, FleetScheduler};
//! use sero_core::line::Line;
//!
//! let mut fleet: Vec<SeroDevice> = (0..3).map(|_| SeroDevice::with_blocks(64)).collect();
//! for dev in &mut fleet {
//!     let line = Line::new(0, 3)?;
//!     for pba in line.data_blocks() {
//!         dev.write_block(pba, &[7u8; 512])?;
//!     }
//!     dev.heat_line(line, vec![], 0)?;
//! }
//! let mut sched = FleetScheduler::start(fleet.iter(), FleetConfig::default())?;
//! sched.run_to_completion(&mut fleet)?;
//! assert!(sched.is_complete());
//! assert!(fleet.iter().all(|d| d.scrub_epoch() == 1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::device::{LoadProbe, SeroDevice, SeroError};
use crate::sched::{SchedConfig, SchedConfigError, SchedProgress, ScrubScheduler, SliceOutcome};
use crate::scrub::{ScrubConfig, ScrubMode, ScrubReport};

/// Converts a device's observed foreground load into its per-quantum
/// scrub budget: `budget = quantum × idle_fraction × headroom`, clamped
/// to `[min_budget_ns, max_budget_ns]` (and never above the quantum).
///
/// The idle fraction comes from the device's [`LoadProbe`] — EWMA busy
/// time over EWMA inter-arrival gap — so a device drowning in foreground
/// traffic contributes only its floor budget (scrub creeps, never
/// starves), while an idle device offers most of its quantum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveBudget {
    /// Floor grant: scrub always makes progress, even on a saturated
    /// device (a pass that never runs is a tamper-evidence hole).
    pub min_budget_ns: u64,
    /// Ceiling grant, additionally clamped to the quantum.
    pub max_budget_ns: u64,
    /// Fraction of the measured idle time handed to scrub; the rest
    /// stays in reserve for foreground bursts.
    pub headroom: f64,
}

impl Default for AdaptiveBudget {
    /// 0.2 ms floor, quantum-bounded ceiling, half of measured idle.
    fn default() -> AdaptiveBudget {
        AdaptiveBudget {
            min_budget_ns: 200_000,
            max_budget_ns: u64::MAX,
            headroom: 0.5,
        }
    }
}

impl AdaptiveBudget {
    /// The per-quantum budget for a device whose foreground looks like
    /// `load`. Always in `[1, quantum_ns]` for a non-zero quantum.
    pub fn budget_for(&self, load: &LoadProbe, quantum_ns: u64) -> u64 {
        let idle = (1.0 - load.utilization()).clamp(0.0, 1.0);
        let raw = (quantum_ns as f64 * idle * self.headroom.clamp(0.0, 1.0)) as u64;
        let hi = self.max_budget_ns.min(quantum_ns).max(1);
        let lo = self.min_budget_ns.min(hi).max(1);
        raw.clamp(lo, hi)
    }
}

/// How the fleet ranks its members for pass admission and budget grants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FleetOrdering {
    /// Devices with flagged lines first (more flags outrank fewer; ties
    /// go to the lower index) — the detection-latency-minimising order.
    #[default]
    SuspicionFirst,
    /// Plain index order, ignoring suspicion — the round-robin reference
    /// the detection-latency claim test compares against.
    RoundRobin,
}

/// Tuning knobs for a [`FleetScheduler`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Mode and full-pass cadence of each member pass (the `workers`
    /// field is ignored, as in [`SchedConfig`]).
    pub scrub: ScrubConfig,
    /// Per-device scheduling quantum, ns.
    pub quantum_ns: u64,
    /// Fleet-wide scrub allowance per quantum, ns of device time summed
    /// over all concurrently granted budgets. May exceed one quantum —
    /// it spans many devices.
    pub global_budget_ns: u64,
    /// At most this many member passes run concurrently (`0` is treated
    /// as `1`); the rest are staggered behind them in priority order.
    pub max_concurrent: usize,
    /// Adaptive per-device budgets from measured load; `None` divides
    /// the global budget statically (global / max_concurrent each).
    pub adaptive: Option<AdaptiveBudget>,
    /// Member ranking (see [`FleetOrdering`]).
    pub ordering: FleetOrdering,
}

impl Default for FleetConfig {
    /// Incremental member passes, a 10 ms quantum, a 4 ms global budget,
    /// two concurrent passes, adaptive budgets, suspicion-first.
    fn default() -> FleetConfig {
        FleetConfig {
            scrub: ScrubConfig {
                workers: 1,
                mode: ScrubMode::Incremental,
                full_every: 8,
            },
            quantum_ns: 10_000_000,
            global_budget_ns: 4_000_000,
            max_concurrent: 2,
            adaptive: Some(AdaptiveBudget::default()),
            ordering: FleetOrdering::default(),
        }
    }
}

impl FleetConfig {
    /// Validates the knobs (zero quantum or zero global budget would
    /// silently flip the fleet into a regime nobody asked for — the same
    /// loudness rule as [`SchedConfig::budgeted`]).
    ///
    /// # Errors
    ///
    /// [`SchedConfigError::ZeroQuantum`] / [`SchedConfigError::ZeroBudget`].
    pub fn validate(&self) -> Result<(), SchedConfigError> {
        if self.quantum_ns == 0 {
            return Err(SchedConfigError::ZeroQuantum);
        }
        if self.global_budget_ns == 0 {
            return Err(SchedConfigError::ZeroBudget);
        }
        Ok(())
    }

    /// The concurrency slot count actually used.
    fn slots(&self) -> usize {
        self.max_concurrent.max(1)
    }
}

/// Lifecycle of one fleet member's pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetMemberState {
    /// Waiting for a concurrency slot.
    Pending,
    /// Pass in flight, accepting slices.
    Running,
    /// Paused by the operator (a paused *active* member keeps its slot;
    /// a paused pending member is skipped at admission).
    Paused,
    /// Cancelled; the device's completed-pass epoch was not advanced.
    Cancelled,
    /// Pass drained and the device's epoch advanced.
    Complete,
}

/// What one [`FleetScheduler::tick_member`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetSliceOutcome {
    /// Verified `lines` lines in `device_ns` of this device's time.
    Ran {
        /// Lines verified in this slice.
        lines: usize,
        /// Device time the slice consumed.
        device_ns: u128,
    },
    /// The member's per-quantum budget is spent; scrub may run again at
    /// `resume_at_ns` on *that device's* clock.
    Throttled {
        /// Device-clock time at which the member's next quantum opens.
        resume_at_ns: u128,
    },
    /// Higher-priority members consumed the whole global budget this
    /// round; the member idles until a re-grant frees allowance.
    Starved,
    /// The member is pending and no concurrency slot (or priority) is
    /// available yet.
    Waiting,
    /// The member is paused; nothing ran.
    Paused,
    /// Nothing to do: the member completed or was cancelled.
    Idle,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemberPhase {
    Pending,
    Active,
    Complete,
    Cancelled,
}

#[derive(Debug, Clone)]
struct FleetMember {
    phase: MemberPhase,
    paused: bool,
    flagged_at_start: usize,
    sched: Option<ScrubScheduler>,
}

/// Point-in-time fleet totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetProgress {
    /// Member passes currently active (running or paused-active).
    pub active: usize,
    /// Most passes ever active at once — must never exceed the
    /// configured concurrency ceiling.
    pub peak_active: usize,
    /// Members whose pass completed.
    pub completed: usize,
    /// Members cancelled.
    pub cancelled: usize,
    /// Members still waiting for a slot.
    pub pending: usize,
    /// Lines verified fleet-wide so far.
    pub verified: usize,
    /// Tamper findings fleet-wide so far.
    pub tampered: usize,
}

/// A scrub coordinator over a fleet of [`SeroDevice`]s.
///
/// The scheduler holds per-member pass state only; the devices stay with
/// the caller, who passes them (all of them, in the same order as at
/// [`FleetScheduler::start`]) into [`FleetScheduler::tick`] — or one at a
/// time into [`FleetScheduler::tick_member`], the shape a per-device I/O
/// loop wants. See the module docs for the scheduling model.
#[derive(Debug, Clone)]
pub struct FleetScheduler {
    config: FleetConfig,
    members: Vec<FleetMember>,
    /// Member indices in grant/admission priority order.
    order: Vec<usize>,
    /// Last budget grant per member (`0` = inactive or starved).
    grants: Vec<u64>,
    /// Load samples from the last retune, per member.
    loads: Vec<LoadProbe>,
    active: usize,
    peak_active: usize,
    completion_order: Vec<usize>,
}

impl FleetScheduler {
    /// Plans a coordinated pass over `devs` (their order defines member
    /// indices): snapshots each device's suspicion level, ranks the
    /// members, and leaves every pass *pending* — each member's work
    /// list is snapshotted by its own [`ScrubScheduler::start`] at
    /// admission time, so flags and heats that land while a member waits
    /// for a slot are still covered by its pass.
    ///
    /// # Errors
    ///
    /// [`SchedConfigError`] for degenerate knobs
    /// (see [`FleetConfig::validate`]).
    pub fn start<'a, I>(devs: I, config: FleetConfig) -> Result<FleetScheduler, SchedConfigError>
    where
        I: IntoIterator<Item = &'a SeroDevice>,
    {
        config.validate()?;
        let mut members = Vec::new();
        let mut loads = Vec::new();
        for dev in devs {
            members.push(FleetMember {
                phase: MemberPhase::Pending,
                paused: false,
                flagged_at_start: dev.heated_lines().filter(|r| r.flagged).count(),
                sched: None,
            });
            loads.push(*dev.load_probe());
        }
        let mut order: Vec<usize> = (0..members.len()).collect();
        if config.ordering == FleetOrdering::SuspicionFirst {
            order.sort_by_key(|&i| (std::cmp::Reverse(members[i].flagged_at_start), i));
        }
        let grants = vec![0u64; members.len()];
        Ok(FleetScheduler {
            config,
            members,
            order,
            grants,
            loads,
            active: 0,
            peak_active: 0,
            completion_order: Vec::new(),
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> FleetConfig {
        self.config
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True for a fleet with no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Member indices in admission/grant priority order.
    pub fn priority_order(&self) -> &[usize] {
        &self.order
    }

    /// The budget grants from the last re-division, per member (`0` for
    /// inactive, paused, or starved members). Their sum never exceeds
    /// [`FleetConfig::global_budget_ns`].
    pub fn last_grants(&self) -> &[u64] {
        &self.grants
    }

    /// Member indices in the order their passes completed.
    pub fn completion_order(&self) -> &[usize] {
        &self.completion_order
    }

    /// Most member passes ever active at once.
    pub fn peak_active(&self) -> usize {
        self.peak_active
    }

    /// Lifecycle state of member `idx`.
    pub fn member_state(&self, idx: usize) -> FleetMemberState {
        let m = &self.members[idx];
        match m.phase {
            MemberPhase::Cancelled => FleetMemberState::Cancelled,
            MemberPhase::Complete => FleetMemberState::Complete,
            _ if m.paused => FleetMemberState::Paused,
            MemberPhase::Pending => FleetMemberState::Pending,
            MemberPhase::Active => FleetMemberState::Running,
        }
    }

    /// Scheduling progress of member `idx`'s pass (`None` until it is
    /// admitted).
    pub fn member_progress(&self, idx: usize) -> Option<SchedProgress> {
        self.members[idx]
            .sched
            .as_ref()
            .map(ScrubScheduler::progress)
    }

    /// The pass report of member `idx` (`None` until admitted; partial
    /// until complete).
    pub fn member_report(&self, idx: usize) -> Option<ScrubReport> {
        self.members[idx].sched.as_ref().map(ScrubScheduler::report)
    }

    /// All member reports, indexed by member.
    pub fn reports(&self) -> Vec<Option<ScrubReport>> {
        (0..self.members.len())
            .map(|i| self.member_report(i))
            .collect()
    }

    /// Fleet-wide totals.
    pub fn progress(&self) -> FleetProgress {
        let mut p = FleetProgress {
            active: self.active,
            peak_active: self.peak_active,
            ..FleetProgress::default()
        };
        for m in &self.members {
            match m.phase {
                MemberPhase::Pending => p.pending += 1,
                MemberPhase::Complete => p.completed += 1,
                MemberPhase::Cancelled => p.cancelled += 1,
                MemberPhase::Active => {}
            }
            if let Some(sched) = &m.sched {
                let sp = sched.progress();
                p.verified += sp.verified;
                p.tampered += sp.tampered;
            }
        }
        p
    }

    /// True once every member is complete or cancelled.
    pub fn is_complete(&self) -> bool {
        self.members
            .iter()
            .all(|m| matches!(m.phase, MemberPhase::Complete | MemberPhase::Cancelled))
    }

    /// Pauses member `idx` between slices. A paused active member keeps
    /// its concurrency slot; a paused pending member is skipped at
    /// admission until resumed.
    pub fn pause(&mut self, idx: usize) {
        self.members[idx].paused = true;
        if let Some(sched) = &mut self.members[idx].sched {
            sched.pause();
        }
    }

    /// Resumes a paused member.
    pub fn resume(&mut self, idx: usize) {
        self.members[idx].paused = false;
        if let Some(sched) = &mut self.members[idx].sched {
            sched.resume();
        }
    }

    /// Cancels member `idx`'s pass between slices, freeing its
    /// concurrency slot for the next pending member. The device's
    /// completed-pass epoch stays untouched; partial outcomes remain
    /// readable via [`FleetScheduler::member_report`].
    pub fn cancel(&mut self, idx: usize) {
        let member = &mut self.members[idx];
        if matches!(member.phase, MemberPhase::Complete | MemberPhase::Cancelled) {
            return;
        }
        if member.phase == MemberPhase::Active {
            self.active -= 1;
        }
        member.phase = MemberPhase::Cancelled;
        self.grants[idx] = 0;
        if let Some(sched) = &mut member.sched {
            sched.cancel();
        }
    }

    /// Re-divides the global per-quantum budget across the active
    /// members from fresh load samples (one per member, in member
    /// order): each active, unpaused member's desired budget — adaptive
    /// from its load probe, or the static `global / max_concurrent`
    /// share — is granted in priority order until the global allowance
    /// runs out. [`FleetScheduler::tick`] retunes automatically; call
    /// this directly when driving members one at a time through
    /// [`FleetScheduler::tick_member`].
    ///
    /// # Panics
    ///
    /// Panics when `loads` does not carry exactly one sample per member.
    pub fn retune(&mut self, loads: &[LoadProbe]) {
        assert_eq!(
            loads.len(),
            self.members.len(),
            "retune needs one load sample per member"
        );
        self.loads.copy_from_slice(loads);
        self.recompute_grants();
    }

    /// The grant walk: priority order, desired budget each, stop at the
    /// global cap. Also pushes the new budgets into the active member
    /// schedulers.
    ///
    /// Under [`FleetOrdering::SuspicionFirst`], a member that carried
    /// flagged lines at fleet start desires the *full quantum* rather
    /// than its idle-derived share: detection latency on a device with
    /// standing suspicion outranks that device's foreground comfort, so
    /// its pass runs at the highest duty the global cap allows while
    /// clean peers soak up only measured idle time.
    fn recompute_grants(&mut self) {
        let quantum = self.config.quantum_ns;
        let static_share = (self.config.global_budget_ns / self.config.slots() as u64).max(1);
        let mut remaining = self.config.global_budget_ns;
        self.grants.iter_mut().for_each(|g| *g = 0);
        for idx in 0..self.order.len() {
            let i = self.order[idx];
            let member = &mut self.members[i];
            if member.phase != MemberPhase::Active || member.paused {
                continue;
            }
            let suspicious = self.config.ordering == FleetOrdering::SuspicionFirst
                && member.flagged_at_start > 0;
            let desired = if suspicious {
                quantum
            } else {
                match &self.config.adaptive {
                    Some(adaptive) => adaptive.budget_for(&self.loads[i], quantum),
                    None => static_share,
                }
            }
            .min(quantum.max(1));
            let grant = desired.min(remaining);
            self.grants[i] = grant;
            remaining -= grant;
            if grant > 0 {
                if let Some(sched) = &mut member.sched {
                    sched.set_budget_ns(grant);
                }
            }
        }
    }

    /// Admits pending member `idx` if a slot is free and no unpaused
    /// pending member outranks it. Returns whether it is now active.
    fn try_admit(&mut self, idx: usize, dev: &SeroDevice) -> bool {
        if self.active >= self.config.slots() {
            return false;
        }
        for &j in &self.order {
            if j == idx {
                break;
            }
            if self.members[j].phase == MemberPhase::Pending && !self.members[j].paused {
                return false; // a higher-priority member is owed the slot
            }
        }
        let config = SchedConfig {
            scrub: self.config.scrub,
            // Placeholder until the grant walk below assigns the real
            // share; a starved member is skipped before its first slice.
            budget_ns: 1,
            quantum_ns: self.config.quantum_ns,
        };
        self.members[idx].sched = Some(ScrubScheduler::start(dev, config));
        self.members[idx].phase = MemberPhase::Active;
        self.active += 1;
        self.peak_active = self.peak_active.max(self.active);
        self.recompute_grants();
        true
    }

    /// Grants member `idx` one slice of device time on `dev` — *its*
    /// device, the same position it held at [`FleetScheduler::start`].
    /// Handles admission (staggering) and consults the last budget
    /// grants; interleave with foreground work on that device exactly
    /// like [`ScrubScheduler::run_slice`].
    ///
    /// # Errors
    ///
    /// Only infrastructure failures propagate; tamper findings are data
    /// in the member report.
    pub fn tick_member(
        &mut self,
        idx: usize,
        dev: &mut SeroDevice,
    ) -> Result<FleetSliceOutcome, SeroError> {
        self.loads[idx] = *dev.load_probe();
        match self.members[idx].phase {
            MemberPhase::Complete | MemberPhase::Cancelled => return Ok(FleetSliceOutcome::Idle),
            MemberPhase::Pending => {
                if self.members[idx].paused {
                    return Ok(FleetSliceOutcome::Paused);
                }
                if !self.try_admit(idx, dev) {
                    return Ok(FleetSliceOutcome::Waiting);
                }
            }
            MemberPhase::Active => {
                if self.members[idx].paused {
                    return Ok(FleetSliceOutcome::Paused);
                }
            }
        }
        if self.grants[idx] == 0 {
            // A slot or budget may have freed since the last walk.
            self.recompute_grants();
            if self.grants[idx] == 0 {
                return Ok(FleetSliceOutcome::Starved);
            }
        }
        let sched = self.members[idx]
            .sched
            .as_mut()
            .expect("active member has a scheduler");
        let outcome = sched.run_slice(dev)?;
        if sched.is_complete() {
            self.members[idx].phase = MemberPhase::Complete;
            self.active -= 1;
            self.grants[idx] = 0;
            self.completion_order.push(idx);
            self.recompute_grants(); // release this member's share
        }
        Ok(match outcome {
            SliceOutcome::Ran { lines, device_ns } => FleetSliceOutcome::Ran { lines, device_ns },
            SliceOutcome::Throttled { resume_at_ns } => {
                FleetSliceOutcome::Throttled { resume_at_ns }
            }
            SliceOutcome::Paused => FleetSliceOutcome::Paused,
            SliceOutcome::Idle => FleetSliceOutcome::Idle,
        })
    }

    /// One fleet round: samples every device's load probe, re-divides
    /// the global budget, then grants each member one slice in priority
    /// order. `devs` must be the full fleet in start order: bare
    /// [`SeroDevice`]s, or anything that lends one out through
    /// [`AsMut`] (a mounted `sero-fs` file system does).
    ///
    /// # Errors
    ///
    /// The first infrastructure failure aborts the round; members not
    /// yet ticked simply run next round.
    pub fn tick<D: AsMut<SeroDevice>>(
        &mut self,
        devs: &mut [D],
    ) -> Result<Vec<(usize, FleetSliceOutcome)>, SeroError> {
        assert_eq!(
            devs.len(),
            self.members.len(),
            "tick needs the full fleet in start order"
        );
        let loads: Vec<LoadProbe> = devs.iter_mut().map(|d| *d.as_mut().load_probe()).collect();
        self.retune(&loads);
        let order = self.order.clone();
        let mut outcomes = Vec::with_capacity(order.len());
        for &i in &order {
            outcomes.push((i, self.tick_member(i, devs[i].as_mut())?));
        }
        Ok(outcomes)
    }

    /// Drives the fleet to completion on otherwise-idle devices: ticks
    /// in priority order and idles each throttled or starved device
    /// forward on its own clock. Returns early (without error) if every
    /// remaining member is paused — nothing can progress until the
    /// operator resumes them.
    ///
    /// # Errors
    ///
    /// Infrastructure failures from any member slice.
    pub fn run_to_completion<D: AsMut<SeroDevice>>(
        &mut self,
        devs: &mut [D],
    ) -> Result<(), SeroError> {
        let mut guard = 0usize;
        while !self.is_complete() {
            guard += 1;
            assert!(guard < 1_000_000, "fleet scheduler failed to converge");
            let mut progressed = false;
            for (i, outcome) in self.tick(devs)? {
                let dev = devs[i].as_mut();
                match outcome {
                    FleetSliceOutcome::Ran { .. } => progressed = true,
                    FleetSliceOutcome::Throttled { resume_at_ns } => {
                        let now = dev.probe().clock().elapsed_ns();
                        if resume_at_ns > now {
                            dev.probe_mut().advance_clock((resume_at_ns - now) as u64);
                        }
                        progressed = true;
                    }
                    FleetSliceOutcome::Starved => {
                        // The device idles a quantum while peers hold the
                        // whole global budget; completion frees it.
                        dev.probe_mut().advance_clock(self.config.quantum_ns);
                        progressed = true;
                    }
                    FleetSliceOutcome::Waiting
                    | FleetSliceOutcome::Paused
                    | FleetSliceOutcome::Idle => {}
                }
            }
            if !progressed {
                return Ok(()); // everything left is paused
            }
        }
        Ok(())
    }
}

/// Advances every device's clock to the fleet-wide maximum. A fleet
/// lives on one wall: while one device scrubs, real time passes on its
/// idle peers too. Drivers with no foreground traffic (tests, the
/// detection-latency claim) call this between rounds so per-device
/// clocks stay comparable as one fleet timeline.
pub fn sync_clocks(devs: &mut [SeroDevice]) {
    let wall = devs
        .iter()
        .map(|d| d.probe().clock().elapsed_ns())
        .max()
        .unwrap_or(0);
    for dev in devs {
        let now = dev.probe().clock().elapsed_ns();
        if wall > now {
            dev.probe_mut().advance_clock((wall - now) as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::Line;
    use crate::scrub::scrub_device;

    const T0: u64 = 1_199_145_600;

    fn heated_device(blocks: u64, lines: usize) -> SeroDevice {
        let mut dev = SeroDevice::with_blocks(blocks);
        for i in 0..lines as u64 {
            let line = Line::new(i * 8, 3).unwrap();
            for pba in line.data_blocks() {
                dev.write_block(pba, &[pba as u8; 512]).unwrap();
            }
            dev.heat_line(line, vec![], T0 + i).unwrap();
        }
        dev
    }

    fn fleet(n: usize, lines: usize) -> Vec<SeroDevice> {
        (0..n).map(|_| heated_device(256, lines)).collect()
    }

    #[test]
    fn fleet_pass_matches_exclusive_per_device_passes() {
        let mut devs = fleet(3, 6);
        devs[1]
            .probe_mut()
            .mws(Line::new(16, 3).unwrap().start() + 1, &[0xEE; 512])
            .unwrap();
        let exclusive: Vec<ScrubReport> = devs
            .clone()
            .iter_mut()
            .map(|d| scrub_device(d, &ScrubConfig::with_workers(1)).unwrap())
            .collect();

        let mut sched = FleetScheduler::start(devs.iter(), FleetConfig::default()).unwrap();
        sched.run_to_completion(&mut devs).unwrap();
        assert!(sched.is_complete());
        for (i, expected) in exclusive.iter().enumerate() {
            let report = sched.member_report(i).expect("admitted");
            assert_eq!(report.outcomes, expected.outcomes, "member {i}");
            assert_eq!(devs[i].scrub_epoch(), 1);
        }
        assert_eq!(sched.progress().tampered, 1);
        assert_eq!(sched.completion_order().len(), 3);
    }

    #[test]
    fn staggering_caps_concurrent_passes() {
        let mut devs = fleet(4, 8);
        let config = FleetConfig {
            max_concurrent: 2,
            ..FleetConfig::default()
        };
        let mut sched = FleetScheduler::start(devs.iter(), config).unwrap();
        // First round: exactly the slot count admits; the rest wait.
        let outcomes = sched.tick(&mut devs).unwrap();
        let waiting = outcomes
            .iter()
            .filter(|(_, o)| *o == FleetSliceOutcome::Waiting)
            .count();
        assert_eq!(waiting, 2);
        assert_eq!(sched.progress().active, 2);
        sched.run_to_completion(&mut devs).unwrap();
        assert_eq!(sched.peak_active(), 2, "stagger ceiling held");
        assert_eq!(sched.completion_order().len(), 4);
    }

    #[test]
    fn suspicion_first_admits_flagged_device_first() {
        let mut devs = fleet(3, 6);
        // Flag device 2 via a refused protocol write.
        let frozen = Line::new(0, 3).unwrap();
        assert!(devs[2]
            .write_block(frozen.start() + 1, &[0u8; 512])
            .is_err());
        let config = FleetConfig {
            max_concurrent: 1,
            ..FleetConfig::default()
        };
        let mut sched = FleetScheduler::start(devs.iter(), config).unwrap();
        assert_eq!(sched.priority_order(), &[2, 0, 1]);
        sched.run_to_completion(&mut devs).unwrap();
        assert_eq!(
            sched.completion_order()[0],
            2,
            "flagged pass finishes first"
        );

        // Round-robin ignores the flag.
        let devs2 = fleet(3, 6);
        let rr = FleetScheduler::start(
            devs2.iter(),
            FleetConfig {
                ordering: FleetOrdering::RoundRobin,
                max_concurrent: 1,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        assert_eq!(rr.priority_order(), &[0, 1, 2]);
    }

    #[test]
    fn grants_never_exceed_the_global_budget() {
        let mut devs = fleet(4, 4);
        let config = FleetConfig {
            global_budget_ns: 3_000_000,
            max_concurrent: 4,
            ..FleetConfig::default()
        };
        let mut sched = FleetScheduler::start(devs.iter(), config).unwrap();
        let mut guard = 0;
        while !sched.is_complete() {
            guard += 1;
            assert!(guard < 10_000);
            for (i, outcome) in sched.tick(&mut devs).unwrap() {
                let granted: u64 = sched.last_grants().iter().sum();
                assert!(
                    granted <= config.global_budget_ns,
                    "grants {granted} exceed global budget"
                );
                if let FleetSliceOutcome::Throttled { resume_at_ns } = outcome {
                    let now = devs[i].probe().clock().elapsed_ns();
                    devs[i]
                        .probe_mut()
                        .advance_clock((resume_at_ns - now) as u64);
                }
            }
        }
    }

    #[test]
    fn adaptive_budget_tracks_idleness() {
        let adaptive = AdaptiveBudget::default();
        let quantum = 10_000_000u64;

        // A never-used device claims the full headroom share.
        let idle = LoadProbe::default();
        assert_eq!(adaptive.budget_for(&idle, quantum), 5_000_000);

        // A saturated device (back-to-back arrivals) gets the floor.
        let mut busy = SeroDevice::with_blocks(64);
        for pba in 0..32 {
            busy.write_block(pba, &[1u8; 512]).unwrap();
        }
        assert_eq!(
            adaptive.budget_for(busy.load_probe(), quantum),
            adaptive.min_budget_ns
        );

        // A partially loaded device lands in between.
        let mut half = SeroDevice::with_blocks(64);
        for pba in 0..32 {
            half.write_block(pba, &[1u8; 512]).unwrap();
            half.probe_mut().advance_clock(4_200_000); // ≈ busy time again
        }
        let grant = adaptive.budget_for(half.load_probe(), quantum);
        assert!(
            grant > adaptive.min_budget_ns && grant < 5_000_000,
            "mid-load grant {grant}"
        );

        // The grant never exceeds the quantum, whatever the ceiling says.
        let greedy_ceiling = AdaptiveBudget {
            max_budget_ns: u64::MAX,
            min_budget_ns: u64::MAX,
            headroom: 1.0,
        };
        assert_eq!(greedy_ceiling.budget_for(&idle, quantum), quantum);
    }

    #[test]
    fn pause_resume_and_cancel_drive_member_states() {
        let mut devs = fleet(2, 4);
        let mut sched = FleetScheduler::start(devs.iter(), FleetConfig::default()).unwrap();
        sched.tick(&mut devs).unwrap();
        assert_eq!(sched.member_state(0), FleetMemberState::Running);

        sched.pause(0);
        assert_eq!(sched.member_state(0), FleetMemberState::Paused);
        let verified = sched.member_progress(0).unwrap().verified;
        assert_eq!(
            sched.tick_member(0, &mut devs[0]).unwrap(),
            FleetSliceOutcome::Paused
        );
        assert_eq!(sched.member_progress(0).unwrap().verified, verified);
        sched.resume(0);

        sched.cancel(1);
        assert_eq!(sched.member_state(1), FleetMemberState::Cancelled);
        assert_eq!(
            sched.tick_member(1, &mut devs[1]).unwrap(),
            FleetSliceOutcome::Idle
        );
        sched.run_to_completion(&mut devs).unwrap();
        assert_eq!(sched.member_state(0), FleetMemberState::Complete);
        assert_eq!(devs[0].scrub_epoch(), 1);
        assert_eq!(devs[1].scrub_epoch(), 0, "cancelled pass never counts");
    }

    #[test]
    fn cancelling_an_active_member_frees_its_slot() {
        let mut devs = fleet(3, 4);
        let config = FleetConfig {
            max_concurrent: 1,
            ..FleetConfig::default()
        };
        let mut sched = FleetScheduler::start(devs.iter(), config).unwrap();
        sched.tick(&mut devs).unwrap();
        assert_eq!(sched.member_state(0), FleetMemberState::Running);
        assert_eq!(sched.member_state(1), FleetMemberState::Pending);
        sched.cancel(0);
        sched.run_to_completion(&mut devs).unwrap();
        assert_eq!(sched.completion_order(), &[1, 2]);
        assert_eq!(sched.peak_active(), 1);
    }

    #[test]
    fn all_paused_fleet_returns_instead_of_spinning() {
        let mut devs = fleet(2, 2);
        let mut sched = FleetScheduler::start(devs.iter(), FleetConfig::default()).unwrap();
        sched.pause(0);
        sched.pause(1);
        sched.run_to_completion(&mut devs).unwrap();
        assert!(!sched.is_complete());
        assert_eq!(sched.member_state(0), FleetMemberState::Paused);
    }

    #[test]
    fn empty_fleet_is_trivially_complete() {
        let mut devs: Vec<SeroDevice> = Vec::new();
        let mut sched = FleetScheduler::start(devs.iter(), FleetConfig::default()).unwrap();
        assert!(sched.is_complete() && sched.is_empty());
        sched.run_to_completion(&mut devs).unwrap();
    }

    #[test]
    fn degenerate_fleet_configs_are_rejected() {
        let devs = fleet(1, 1);
        assert_eq!(
            FleetScheduler::start(
                devs.iter(),
                FleetConfig {
                    quantum_ns: 0,
                    ..FleetConfig::default()
                }
            )
            .err(),
            Some(SchedConfigError::ZeroQuantum)
        );
        assert_eq!(
            FleetScheduler::start(
                devs.iter(),
                FleetConfig {
                    global_budget_ns: 0,
                    ..FleetConfig::default()
                }
            )
            .err(),
            Some(SchedConfigError::ZeroBudget)
        );
    }

    #[test]
    fn sync_clocks_aligns_the_fleet_wall() {
        let mut devs = fleet(3, 1);
        devs[1].probe_mut().advance_clock(123_456_789);
        sync_clocks(&mut devs);
        let wall = devs[1].probe().clock().elapsed_ns();
        assert!(devs.iter().all(|d| d.probe().clock().elapsed_ns() == wall));
        sync_clocks(&mut []); // empty fleet is a no-op
    }
}
