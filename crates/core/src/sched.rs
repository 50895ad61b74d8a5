//! Background scrub scheduling under live foreground traffic.
//!
//! [`crate::scrub::scrub_device`] is an *exclusive* pass: once started it
//! owns the device until every line in its work list is verified. That is
//! the right shape for a dedicated maintenance window, but the paper's
//! tamper-evidence guarantee is only as fresh as the last verification
//! pass — production verified stores therefore verify *continuously*,
//! interleaved with client traffic, the way proxmox-backup's datastore
//! verify tasks run alongside backups. [`ScrubScheduler`] brings that
//! model to the SERO device:
//!
//! * the pass's work list (full or incremental delta, shared with
//!   [`crate::scrub::pass_work_list`]) is consumed in **slices**: short
//!   bursts of line verifies bounded by a *device-time budget*;
//! * foreground I/O always wins: scrub only runs when the host grants it
//!   a slice via [`ScrubScheduler::run_slice`], and every slice ends at a
//!   line boundary, so a foreground request waits at most
//!   `budget_ns` *plus the one line in flight* — never for the rest of
//!   the pass;
//! * a **scheduling quantum** duty-cycles the scrub: at most `budget_ns`
//!   of scrub device time is spent per `quantum_ns` of device time, so
//!   even an idle device keeps capacity in reserve for bursts;
//! * slices are **seek-aware**: each pick verifies the pending line
//!   nearest the sled's current track (the SSTF discipline of disk
//!   schedulers), so a slice neither opens with a cross-device seek nor
//!   strands the next foreground request far from its working set —
//!   without this, the slice's travel dwarfs its budget and background
//!   scrub costs *more* foreground latency than stop-the-world
//!   (`exp_sched` measures exactly that trade-off);
//! * a slice needs **exclusive access to the device** (`&mut
//!   SeroDevice`), so it can never overlap a foreground write: the served
//!   stack runs each slice inside the same window mutex as every other
//!   request, which is what makes "scrub never reads a line mid-write"
//!   hold (see `docs/ARCHITECTURE.md`);
//! * the pass is **pausable, resumable, and cancellable** between
//!   slices. A cancelled pass leaves the device's completed-pass epoch
//!   untouched — only a pass that drained its work list calls
//!   [`SeroDevice::scrub_epoch`] forward, so tamper evidence can never be
//!   masked by a pass that half-ran.
//!
//! Slice-end decisions use an exponentially weighted estimate of the
//! per-line verify cost observed so far: a slice stops *before* starting
//! a line predicted to overrun the budget, rather than after noticing the
//! overrun. The first line of a slice always runs (progress guarantee),
//! so a single line longer than the whole budget still completes —
//! bounded overrun, never livelock.
//!
//! Every slice is recorded in a [`SliceTrace`] (start, end, lines) — the
//! scheduler trace `exp_sched` ships to CI as an artifact — and
//! [`ScrubScheduler::report`] assembles the familiar
//! [`ScrubReport`] so downstream consumers cannot tell a background pass
//! from an exclusive one.
//!
//! # Examples
//!
//! ```
//! use sero_core::device::SeroDevice;
//! use sero_core::line::Line;
//! use sero_core::sched::{SchedConfig, ScrubScheduler, SliceOutcome};
//!
//! let mut dev = SeroDevice::with_blocks(64);
//! for start in [0u64, 8, 16] {
//!     let line = Line::new(start, 3)?;
//!     for pba in line.data_blocks() {
//!         dev.write_block(pba, &[pba as u8; 512])?;
//!     }
//!     dev.heat_line(line, vec![], 0)?;
//! }
//! let mut sched = ScrubScheduler::start(&dev, SchedConfig::default());
//! while !sched.is_complete() {
//!     match sched.run_slice(&mut dev)? {
//!         SliceOutcome::Throttled { resume_at_ns } => {
//!             // An idle host may simply wait the quantum out.
//!             let now = dev.probe().clock().elapsed_ns();
//!             dev.probe_mut().advance_clock((resume_at_ns - now) as u64);
//!         }
//!         _ => {} // foreground work would run here, between slices
//!     }
//! }
//! assert_eq!(sched.report().summary.lines, 3);
//! assert_eq!(dev.scrub_epoch(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::device::{SeroDevice, SeroError};
use crate::line::Line;
use crate::scrub::{pass_work_list, LineScrub, ScrubConfig, ScrubMode, ScrubReport, ScrubSummary};
use crate::tamper::VerifyOutcome;
use core::fmt;

/// Why a [`SchedConfig`] constructor refused its arguments.
///
/// The raw struct keeps its documented `0` sentinels (`budget_ns == 0` =
/// greedy, `quantum_ns == 0` = no duty cycle) for literal construction,
/// but the named constructors validate: a zero passed *by accident* —
/// a miscomputed budget, an unconverted unit — would silently flip the
/// scheduler into a completely different regime, which is exactly the
/// misbehaviour these errors make loud.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedConfigError {
    /// `budget_ns == 0` would degenerate to the greedy stop-the-world
    /// pass; ask for [`SchedConfig::greedy`] explicitly instead.
    ZeroBudget,
    /// `quantum_ns == 0` would disable duty-cycling; ask for
    /// [`SchedConfig::slice_budget`] explicitly instead.
    ZeroQuantum,
    /// The per-quantum budget exceeds the quantum itself: the duty cycle
    /// would silently saturate at 100%.
    BudgetExceedsQuantum {
        /// The requested budget.
        budget_ns: u64,
        /// The quantum it does not fit in.
        quantum_ns: u64,
    },
}

impl fmt::Display for SchedConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedConfigError::ZeroBudget => write!(
                f,
                "budget_ns = 0 would mean a greedy stop-the-world pass; \
                 use SchedConfig::greedy() if that is intended"
            ),
            SchedConfigError::ZeroQuantum => write!(
                f,
                "quantum_ns = 0 would disable duty-cycling; \
                 use SchedConfig::slice_budget() if that is intended"
            ),
            SchedConfigError::BudgetExceedsQuantum {
                budget_ns,
                quantum_ns,
            } => write!(
                f,
                "budget of {budget_ns} ns exceeds the {quantum_ns} ns quantum: \
                 the duty cycle would silently saturate at 100%"
            ),
        }
    }
}

impl std::error::Error for SchedConfigError {}

/// Tuning knobs for a background scrub pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Mode and full-pass cadence of the underlying scrub (the `workers`
    /// field is ignored — a background pass verifies in place, serially,
    /// so it can yield to foreground I/O between lines).
    pub scrub: ScrubConfig,
    /// Maximum scrub device time per slice, in nanoseconds. `0` means
    /// unbounded — the *greedy* stop-the-world behaviour a slice then
    /// degenerates to (the whole remaining work list in one slice).
    pub budget_ns: u64,
    /// Scheduling quantum: scrub spends at most [`SchedConfig::budget_ns`]
    /// of device time per `quantum_ns` of device time (no banking across
    /// quanta). `0` disables duty-cycling: every slice gets the full
    /// budget regardless of how recently the previous one ran.
    pub quantum_ns: u64,
}

impl Default for SchedConfig {
    /// An incremental background pass spending at most 2 ms of device
    /// time per 10 ms quantum — a 20% duty cycle with foreground waits
    /// bounded by ~2 ms plus one line.
    fn default() -> SchedConfig {
        SchedConfig {
            scrub: ScrubConfig {
                workers: 1,
                mode: ScrubMode::Incremental,
                full_every: 8,
            },
            budget_ns: 2_000_000,
            quantum_ns: 10_000_000,
        }
    }
}

impl SchedConfig {
    /// A budgeted config spending at most `budget_ns` of scrub device
    /// time per `quantum_ns` of device time.
    ///
    /// # Errors
    ///
    /// [`SchedConfigError`] when either knob is `0` (the sentinels mean
    /// entirely different regimes — see [`SchedConfig::greedy`] and
    /// [`SchedConfig::slice_budget`]) or the budget exceeds the quantum
    /// (a >100% duty cycle).
    pub fn budgeted(budget_ns: u64, quantum_ns: u64) -> Result<SchedConfig, SchedConfigError> {
        if budget_ns == 0 {
            return Err(SchedConfigError::ZeroBudget);
        }
        if quantum_ns == 0 {
            return Err(SchedConfigError::ZeroQuantum);
        }
        if budget_ns > quantum_ns {
            return Err(SchedConfigError::BudgetExceedsQuantum {
                budget_ns,
                quantum_ns,
            });
        }
        Ok(SchedConfig {
            budget_ns,
            quantum_ns,
            ..SchedConfig::default()
        })
    }

    /// A slice-bounded config with *no* duty cycle: every slice may spend
    /// up to `budget_ns`, regardless of how recently the previous one
    /// ran. This bounds the single-request wait (one slice) but not the
    /// scrub's share of device time — callers wanting a duty cycle use
    /// [`SchedConfig::budgeted`].
    ///
    /// # Errors
    ///
    /// [`SchedConfigError::ZeroBudget`] — a zero budget would mean the
    /// greedy pass.
    pub fn slice_budget(budget_ns: u64) -> Result<SchedConfig, SchedConfigError> {
        if budget_ns == 0 {
            return Err(SchedConfigError::ZeroBudget);
        }
        Ok(SchedConfig {
            budget_ns,
            quantum_ns: 0,
            ..SchedConfig::default()
        })
    }

    /// The greedy config: unbounded slices, no duty cycle — the
    /// stop-the-world reference the budgeted scheduler is benchmarked
    /// against in `exp_sched`.
    #[must_use]
    pub fn greedy() -> SchedConfig {
        SchedConfig {
            budget_ns: 0,
            quantum_ns: 0,
            ..SchedConfig::default()
        }
    }
}

/// Lifecycle of a background pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedState {
    /// Accepting slices.
    Running,
    /// Paused between slices; [`ScrubScheduler::resume`] continues.
    Paused,
    /// Cancelled between slices. The completed-pass epoch was *not*
    /// advanced; partial outcomes remain readable.
    Cancelled,
    /// Work list drained; the pass completed and the epoch advanced.
    Complete,
}

/// What one [`ScrubScheduler::run_slice`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceOutcome {
    /// Verified `lines` lines in `device_ns` of device time.
    Ran {
        /// Lines verified in this slice.
        lines: usize,
        /// Device time the slice consumed.
        device_ns: u128,
    },
    /// The current quantum's budget is exhausted; scrub may run again at
    /// `resume_at_ns` on the device clock.
    Throttled {
        /// Device-clock time at which the next quantum opens.
        resume_at_ns: u128,
    },
    /// The pass is paused; nothing ran.
    Paused,
    /// Nothing left to do: the pass already completed or was cancelled.
    Idle,
}

/// One slice of scrub work, for the scheduler trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceTrace {
    /// Device clock when the slice started.
    pub start_ns: u128,
    /// Device clock when the slice ended.
    pub end_ns: u128,
    /// Lines verified in this slice.
    pub lines: usize,
}

/// Point-in-time progress of a background pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedProgress {
    /// Lifecycle state.
    pub state: SchedState,
    /// The epoch this pass will complete as.
    pub epoch: u64,
    /// The mode the pass actually runs in.
    pub mode: ScrubMode,
    /// Lines verified so far.
    pub verified: usize,
    /// Lines still queued.
    pub remaining: usize,
    /// Registered lines the pass skips (covered by the last completed
    /// pass; incremental mode only).
    pub skipped: usize,
    /// Tamper findings so far.
    pub tampered: usize,
    /// Slices run so far.
    pub slices: usize,
    /// Scrub device time consumed so far.
    pub scrub_device_ns: u128,
}

/// A pausable, budget-aware background scrub pass over one device.
///
/// Create with [`ScrubScheduler::start`], then grant slices with
/// [`ScrubScheduler::run_slice`] whenever the device has time to spare —
/// typically between foreground requests. See the module docs for the
/// scheduling model.
#[derive(Debug, Clone)]
pub struct ScrubScheduler {
    config: SchedConfig,
    state: SchedState,
    epoch: u64,
    mode: ScrubMode,
    /// Pending lines, kept sorted by start address; slices pick the line
    /// nearest the sled (see [`ScrubScheduler::run_slice`]).
    work: Vec<Line>,
    skipped: usize,
    outcomes: Vec<LineScrub>,
    tampered: usize,
    start_ns: u128,
    scrub_spent_ns: u128,
    window: u128,
    window_spent_ns: u64,
    avg_line_ns: u64,
    slices: Vec<SliceTrace>,
    throttled_ticks: u64,
}

impl ScrubScheduler {
    /// Plans a background pass over `dev`'s registry: snapshots the work
    /// list (full or incremental delta, with the same
    /// [`ScrubConfig::effective_mode`] fallback rules as
    /// [`crate::scrub::scrub_device`]) without touching the device. Lines
    /// heated after this snapshot are left for the next pass.
    pub fn start(dev: &SeroDevice, config: SchedConfig) -> ScrubScheduler {
        let epoch = dev.scrub_epoch() + 1;
        let mode = config.scrub.effective_mode(epoch, dev.scrub_epoch());
        let work = pass_work_list(dev, mode); // registry order: sorted by start
        let skipped = dev.heated_lines().count() - work.len();
        ScrubScheduler {
            config,
            state: SchedState::Running,
            epoch,
            mode,
            work,
            skipped,
            outcomes: Vec::new(),
            tampered: 0,
            start_ns: dev.probe().clock().elapsed_ns(),
            scrub_spent_ns: 0,
            window: 0,
            window_spent_ns: 0,
            avg_line_ns: 0,
            slices: Vec::new(),
            throttled_ticks: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> SchedConfig {
        self.config
    }

    /// Retunes the per-quantum budget between slices. This is how a
    /// controller re-divides a shared budget while a pass is in flight —
    /// the fleet coordinator ([`crate::fleet::FleetScheduler`]) calls it
    /// every time it re-grants its global budget. The quantum itself is
    /// fixed at start; a raise takes effect in the current window, a cut
    /// cannot reclaim time already spent there.
    ///
    /// # Panics
    ///
    /// Panics on `budget_ns == 0` (a zero budget would silently flip the
    /// pass into the greedy regime — a controller with nothing to grant
    /// simply skips the device's slice instead), and on a budget larger
    /// than a non-zero quantum (the >100% duty cycle
    /// [`SchedConfig::budgeted`] rejects; the classic unit slip). A
    /// quantum of `0` — the [`SchedConfig::slice_budget`] regime — has
    /// no duty cycle, so any non-zero budget is legal there.
    pub fn set_budget_ns(&mut self, budget_ns: u64) {
        assert!(
            budget_ns != 0,
            "a zero budget would mean greedy; skip the slice instead"
        );
        assert!(
            self.config.quantum_ns == 0 || budget_ns <= self.config.quantum_ns,
            "budget of {budget_ns} ns exceeds the {} ns quantum; \
             the duty cycle would silently saturate at 100%",
            self.config.quantum_ns
        );
        self.config.budget_ns = budget_ns;
    }

    /// Lifecycle state.
    pub fn state(&self) -> SchedState {
        self.state
    }

    /// True once the work list drained and the epoch advanced.
    pub fn is_complete(&self) -> bool {
        self.state == SchedState::Complete
    }

    /// Pauses the pass: subsequent slices are no-ops until
    /// [`ScrubScheduler::resume`]. Only a running pass can pause.
    pub fn pause(&mut self) {
        if self.state == SchedState::Running {
            self.state = SchedState::Paused;
        }
    }

    /// Resumes a paused pass.
    pub fn resume(&mut self) {
        if self.state == SchedState::Paused {
            self.state = SchedState::Running;
        }
    }

    /// Cancels the pass between slices. The device's completed-pass epoch
    /// is left untouched — a cancelled pass never counts as coverage, so
    /// the next incremental pass still re-verifies everything this one
    /// did not reach. Partial outcomes remain available via
    /// [`ScrubScheduler::report`].
    pub fn cancel(&mut self) {
        if matches!(self.state, SchedState::Running | SchedState::Paused) {
            self.state = SchedState::Cancelled;
        }
    }

    /// Current progress counters.
    pub fn progress(&self) -> SchedProgress {
        SchedProgress {
            state: self.state,
            epoch: self.epoch,
            mode: self.mode,
            verified: self.outcomes.len(),
            remaining: self.work.len(),
            skipped: self.skipped,
            tampered: self.tampered,
            slices: self.slices.len(),
            scrub_device_ns: self.scrub_spent_ns,
        }
    }

    /// The slices run so far (the scheduler trace).
    pub fn trace(&self) -> &[SliceTrace] {
        &self.slices
    }

    /// How many [`ScrubScheduler::run_slice`] calls were refused because
    /// the quantum's budget was already spent.
    pub fn throttled_ticks(&self) -> u64 {
        self.throttled_ticks
    }

    /// Index of the pending line whose track is nearest `pos` (ties go to
    /// the lower address). The work list is sorted by start address, so a
    /// binary search leaves only the two straddling neighbours to compare.
    ///
    /// # Panics
    ///
    /// Panics on an empty work list — callers check first.
    fn nearest_idx(&self, pos: u64) -> usize {
        let after = self.work.partition_point(|l| l.start() <= pos);
        let candidates = [
            after.checked_sub(1),
            (after < self.work.len()).then_some(after),
        ];
        candidates
            .into_iter()
            .flatten()
            .min_by_key(|&i| self.work[i].hash_block().abs_diff(pos))
            .expect("nearest_idx on an empty work list")
    }

    /// The budget still available in the quantum containing device time
    /// `now_ns` (`u64::MAX` for an unbudgeted pass). Advances the window
    /// bookkeeping as a side effect.
    fn allowance_at(&mut self, now_ns: u128) -> u64 {
        if self.config.budget_ns == 0 {
            return u64::MAX;
        }
        if self.config.quantum_ns == 0 {
            return self.config.budget_ns;
        }
        let window = (now_ns - self.start_ns) / self.config.quantum_ns as u128;
        if window != self.window {
            self.window = window;
            self.window_spent_ns = 0;
        }
        self.config.budget_ns.saturating_sub(self.window_spent_ns)
    }

    /// Runs one budgeted slice: verifies queued lines until the quantum's
    /// remaining budget is (predicted to be) exhausted or the work list
    /// drains, stamping each verified line with the pass epoch. Draining
    /// the work list completes the pass and advances the device's
    /// completed-pass epoch. Call between foreground requests; foreground
    /// I/O is never blocked longer than one slice.
    ///
    /// # Errors
    ///
    /// Only infrastructure failures propagate (a registered line out of
    /// range); tamper findings are data in the outcomes. A failed slice
    /// leaves the scheduler consistent — the failing line stays queued.
    pub fn run_slice(&mut self, dev: &mut SeroDevice) -> Result<SliceOutcome, SeroError> {
        match self.state {
            SchedState::Paused => return Ok(SliceOutcome::Paused),
            SchedState::Cancelled | SchedState::Complete => return Ok(SliceOutcome::Idle),
            SchedState::Running => {}
        }
        let slice_start = dev.probe().clock().elapsed_ns();
        let allowance = self.allowance_at(slice_start);
        if allowance == 0 {
            self.throttled_ticks += 1;
            let next_window = self.start_ns + (self.window + 1) * self.config.quantum_ns as u128;
            return Ok(SliceOutcome::Throttled {
                resume_at_ns: next_window,
            });
        }

        let mut lines = 0usize;
        let mut failure: Option<SeroError> = None;
        while !self.work.is_empty() {
            let spent = (dev.probe().clock().elapsed_ns() - slice_start) as u64;
            // Progress guarantee: the first line of a slice always runs.
            // After that, stop *before* a line the running cost estimate
            // predicts would overrun the allowance.
            if lines > 0 && spent.saturating_add(self.avg_line_ns) > allowance {
                break;
            }
            // Seek-aware selection: verify the pending line nearest the
            // sled's current track. The first pick of a slice is nearest
            // wherever foreground I/O left the sled — so the slice
            // neither opens with a cross-device seek nor strands the
            // next foreground request far from its working set — and
            // later picks walk outward over adjacent lines.
            let idx = self.nearest_idx(dev.probe().position_block());
            let line = self.work[idx];
            let t0 = dev.probe().clock().elapsed_ns();
            let outcome = match dev.verify_line(line) {
                Ok(outcome) => outcome,
                Err(e) => {
                    // The failing line stays queued; the slice still gets
                    // accounted below so the trace matches the outcomes
                    // and the quantum cannot be re-opened by retrying.
                    failure = Some(e);
                    break;
                }
            };
            let line_ns = (dev.probe().clock().elapsed_ns() - t0) as u64;
            self.avg_line_ns = if self.avg_line_ns == 0 {
                line_ns
            } else {
                (3 * self.avg_line_ns + line_ns) / 4
            };
            self.work.remove(idx);
            lines += 1;
            let intact = matches!(outcome, VerifyOutcome::Intact { .. });
            if matches!(outcome, VerifyOutcome::Tampered(_)) {
                self.tampered += 1;
            }
            // Stamp immediately: a flag raised by a refused foreground
            // access *after* this stamp survives it, so suspicious
            // activity mid-pass still reaches the next pass.
            dev.stamp_scrubbed(line, self.epoch, !intact);
            self.outcomes.push(LineScrub { line, outcome });
        }

        let end = dev.probe().clock().elapsed_ns();
        let slice_ns = end - slice_start;
        self.scrub_spent_ns += slice_ns;
        // Charge the whole slice to the window it started in — a slice
        // straddling a quantum boundary cannot bank the overhang.
        self.window_spent_ns = self.window_spent_ns.saturating_add(slice_ns as u64);
        self.slices.push(SliceTrace {
            start_ns: slice_start,
            end_ns: end,
            lines,
        });
        if let Some(e) = failure {
            return Err(e);
        }
        if self.work.is_empty() {
            self.state = SchedState::Complete;
            dev.complete_scrub_pass(self.epoch);
        }
        Ok(SliceOutcome::Ran {
            lines,
            device_ns: slice_ns,
        })
    }

    /// Assembles the pass outcomes into a [`ScrubReport`] — identical in
    /// shape to [`crate::scrub::scrub_device`]'s, with `device_ns` equal
    /// to the scrub time actually consumed (foreground time between
    /// slices is not charged to the scrub). For a cancelled pass this is
    /// the partial report of everything verified before cancellation.
    pub fn report(&self) -> ScrubReport {
        let mut outcomes = self.outcomes.clone();
        outcomes.sort_by_key(|l| l.line.start());
        let mut summary = ScrubSummary {
            workers: 1,
            epoch: self.epoch,
            mode: self.mode,
            skipped: self.skipped,
            device_ns: self.scrub_spent_ns,
            serial_device_ns: self.scrub_spent_ns,
            ..ScrubSummary::default()
        };
        crate::scrub::tally_outcomes(&outcomes, &mut summary);
        ScrubReport { outcomes, summary }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scrub::scrub_device;

    const T0: u64 = 1_199_145_600;

    fn heated_device(blocks: u64, order: u32, lines: usize) -> (SeroDevice, Vec<Line>) {
        let mut dev = SeroDevice::with_blocks(blocks);
        let len = 1u64 << order;
        let mut heated = Vec::new();
        for i in 0..lines as u64 {
            let line = Line::new(i * len, order).unwrap();
            for pba in line.data_blocks() {
                dev.write_block(pba, &[pba as u8; 512]).unwrap();
            }
            dev.heat_line(line, vec![], T0 + i).unwrap();
            heated.push(line);
        }
        (dev, heated)
    }

    fn drain(sched: &mut ScrubScheduler, dev: &mut SeroDevice) {
        while !sched.is_complete() {
            match sched.run_slice(dev).unwrap() {
                SliceOutcome::Throttled { resume_at_ns } => {
                    let now = dev.probe().clock().elapsed_ns();
                    dev.probe_mut().advance_clock((resume_at_ns - now) as u64);
                }
                SliceOutcome::Ran { .. } => {}
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn budgeted_pass_matches_exclusive_scrub() {
        let (mut dev, lines) = heated_device(128, 3, 8);
        dev.probe_mut()
            .mws(lines[2].start() + 1, &[0xBB; 512])
            .unwrap();
        let mut exclusive_dev = dev.clone();
        let exclusive = scrub_device(&mut exclusive_dev, &ScrubConfig::with_workers(1)).unwrap();

        let mut sched =
            ScrubScheduler::start(&dev, SchedConfig::budgeted(500_000, 2_000_000).unwrap());
        drain(&mut sched, &mut dev);
        let report = sched.report();

        assert_eq!(report.outcomes, exclusive.outcomes);
        assert_eq!(report.summary.tampered, 1);
        assert_eq!(report.summary.lines, 8);
        assert_eq!(dev.scrub_epoch(), 1);
        assert!(
            sched.trace().len() > 1,
            "budget should force several slices"
        );
    }

    #[test]
    fn slices_respect_the_budget() {
        let (mut dev, _) = heated_device(256, 3, 16);
        let budget = 1_000_000u64;
        let mut sched =
            ScrubScheduler::start(&dev, SchedConfig::budgeted(budget, 4_000_000).unwrap());
        drain(&mut sched, &mut dev);
        let max_line = sched
            .trace()
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as u64 / s.lines.max(1) as u64)
            .max()
            .unwrap();
        for slice in sched.trace() {
            let ns = (slice.end_ns - slice.start_ns) as u64;
            assert!(
                ns <= budget + max_line,
                "slice of {ns} ns overran budget {budget} + one line {max_line}"
            );
        }
    }

    #[test]
    fn quantum_throttles_back_to_back_slices() {
        let (mut dev, _) = heated_device(128, 3, 8);
        let config = SchedConfig::budgeted(500_000, 50_000_000).unwrap();
        let mut sched = ScrubScheduler::start(&dev, config);
        // First slice runs; an immediate second ask in the same quantum is
        // refused with the next window's opening time.
        assert!(matches!(
            sched.run_slice(&mut dev).unwrap(),
            SliceOutcome::Ran { .. }
        ));
        let now = dev.probe().clock().elapsed_ns();
        match sched.run_slice(&mut dev).unwrap() {
            SliceOutcome::Throttled { resume_at_ns } => {
                assert!(resume_at_ns > now);
                dev.probe_mut().advance_clock((resume_at_ns - now) as u64);
            }
            other => panic!("expected throttle, got {other:?}"),
        }
        assert_eq!(sched.throttled_ticks(), 1);
        assert!(matches!(
            sched.run_slice(&mut dev).unwrap(),
            SliceOutcome::Ran { .. }
        ));
    }

    #[test]
    fn greedy_pass_runs_in_one_slice() {
        let (mut dev, _) = heated_device(128, 3, 8);
        let mut sched = ScrubScheduler::start(&dev, SchedConfig::greedy());
        match sched.run_slice(&mut dev).unwrap() {
            SliceOutcome::Ran { lines, .. } => assert_eq!(lines, 8),
            other => panic!("greedy should run everything, got {other:?}"),
        }
        assert!(sched.is_complete());
        assert_eq!(dev.scrub_epoch(), 1);
    }

    #[test]
    fn pause_and_resume_between_slices() {
        let (mut dev, _) = heated_device(128, 3, 8);
        let mut sched = ScrubScheduler::start(&dev, SchedConfig::slice_budget(500_000).unwrap());
        sched.run_slice(&mut dev).unwrap();
        let verified_at_pause = sched.progress().verified;
        sched.pause();
        assert_eq!(sched.run_slice(&mut dev).unwrap(), SliceOutcome::Paused);
        assert_eq!(sched.progress().verified, verified_at_pause);
        sched.resume();
        drain(&mut sched, &mut dev);
        assert_eq!(sched.progress().verified, 8);
    }

    #[test]
    fn cancelled_pass_leaves_completed_epoch_untouched() {
        // The regression this pins: a pass cancelled mid-shard must not
        // advance (or reset) the device's completed-pass counter, and the
        // lines it never reached must still be due in the next pass.
        let (mut dev, _) = heated_device(128, 3, 8);
        let full = scrub_device(&mut dev, &ScrubConfig::with_workers(2)).unwrap();
        assert_eq!(full.summary.epoch, 1);

        // Heat a delta of two fresh lines, then start an incremental pass
        // and cancel it after the first slice.
        let len = 1u64 << 3;
        let mut delta = Vec::new();
        for i in 8..10u64 {
            let line = Line::new(i * len, 3).unwrap();
            for pba in line.data_blocks() {
                dev.write_block(pba, &[pba as u8; 512]).unwrap();
            }
            dev.heat_line(line, vec![], T0).unwrap();
            delta.push(line);
        }
        let mut sched = ScrubScheduler::start(&dev, SchedConfig::slice_budget(1).unwrap());
        match sched.run_slice(&mut dev).unwrap() {
            SliceOutcome::Ran { lines, .. } => assert_eq!(lines, 1, "tiny budget: one line"),
            other => panic!("{other:?}"),
        }
        sched.cancel();
        assert_eq!(sched.state(), SchedState::Cancelled);
        assert_eq!(sched.run_slice(&mut dev).unwrap(), SliceOutcome::Idle);

        // The epoch still says "one completed pass" — the cancelled pass
        // neither advanced nor reset it.
        assert_eq!(dev.scrub_epoch(), 1);
        // The partial report names exactly the one verified line.
        let partial = sched.report();
        assert_eq!(partial.summary.lines, 1);
        assert_eq!(partial.summary.epoch, 2);
        let verified = partial.outcomes[0].line;
        assert!(delta.contains(&verified));

        // A follow-up incremental pass still covers the unreached delta
        // line (and skips the 8 lines epoch 1 covered plus the one the
        // cancelled pass stamped).
        let unreached = *delta.iter().find(|&&l| l != verified).unwrap();
        let next = scrub_device(&mut dev, &ScrubConfig::incremental(1)).unwrap();
        assert_eq!(next.summary.epoch, 2);
        assert_eq!(next.summary.lines, 1);
        assert_eq!(next.outcomes[0].line, unreached);
    }

    #[test]
    fn slices_verify_the_line_nearest_the_sled() {
        let (mut dev, lines) = heated_device(256, 3, 16);
        // Foreground leaves the sled near the high end of the population.
        dev.probe_mut().park_at(lines[13].start() + 2);
        let mut sched = ScrubScheduler::start(&dev, SchedConfig::slice_budget(1).unwrap());
        sched.run_slice(&mut dev).unwrap();
        // `outcomes` is in verification order until report() sorts it.
        assert_eq!(sched.outcomes[0].line, lines[13]);
        // The next slice walks outward from where verification left off.
        sched.run_slice(&mut dev).unwrap();
        let second = sched.outcomes[1].line;
        assert!(second == lines[12] || second == lines[14], "{second}");
        drain(&mut sched, &mut dev);
        assert_eq!(sched.report().summary.lines, 16, "SSTF still drains all");
    }

    #[test]
    fn empty_registry_completes_immediately() {
        let mut dev = SeroDevice::with_blocks(16);
        let mut sched = ScrubScheduler::start(&dev, SchedConfig::default());
        match sched.run_slice(&mut dev).unwrap() {
            SliceOutcome::Ran { lines, .. } => assert_eq!(lines, 0),
            other => panic!("{other:?}"),
        }
        assert!(sched.is_complete());
        assert_eq!(dev.scrub_epoch(), 1);
        assert!(sched.report().summary.is_clean());
    }

    #[test]
    fn flag_raised_after_stamp_survives_the_pass() {
        let (mut dev, _) = heated_device(128, 3, 8);
        let mut sched = ScrubScheduler::start(&dev, SchedConfig::slice_budget(1).unwrap());
        // Verify (and stamp) one line…
        sched.run_slice(&mut dev).unwrap();
        assert_eq!(sched.progress().verified, 1);
        let stamped = sched.report().outcomes[0].line;
        // …then a refused foreground write flags it mid-pass.
        assert!(dev.write_block(stamped.start() + 1, &[0u8; 512]).is_err());
        drain(&mut sched, &mut dev);
        // The flag survived pass completion: the next incremental pass
        // re-verifies exactly that line.
        let next = scrub_device(&mut dev, &ScrubConfig::incremental(1)).unwrap();
        assert_eq!(next.summary.lines, 1);
        assert_eq!(next.outcomes[0].line, stamped);
    }

    #[test]
    fn mid_pass_heats_are_left_for_the_next_pass() {
        let (mut dev, _) = heated_device(256, 3, 8);
        let mut sched = ScrubScheduler::start(&dev, SchedConfig::slice_budget(500_000).unwrap());
        sched.run_slice(&mut dev).unwrap();
        // A foreground heat lands while the pass is mid-flight.
        let line = Line::new(8 * 8, 3).unwrap();
        for pba in line.data_blocks() {
            dev.write_block(pba, &[pba as u8; 512]).unwrap();
        }
        dev.heat_line(line, vec![], T0).unwrap();
        drain(&mut sched, &mut dev);
        assert_eq!(sched.report().summary.lines, 8, "snapshot work list only");
        // The new line is due in the next pass.
        let next = scrub_device(&mut dev, &ScrubConfig::incremental(1)).unwrap();
        assert_eq!(next.summary.lines, 1);
        assert_eq!(next.outcomes[0].line, line);
    }

    #[test]
    fn budgeted_rejects_degenerate_knobs() {
        assert_eq!(
            SchedConfig::budgeted(0, 1_000_000),
            Err(SchedConfigError::ZeroBudget)
        );
        assert_eq!(
            SchedConfig::budgeted(1_000_000, 0),
            Err(SchedConfigError::ZeroQuantum)
        );
        assert_eq!(
            SchedConfig::budgeted(2_000_000, 1_000_000),
            Err(SchedConfigError::BudgetExceedsQuantum {
                budget_ns: 2_000_000,
                quantum_ns: 1_000_000,
            })
        );
        assert_eq!(
            SchedConfig::slice_budget(0),
            Err(SchedConfigError::ZeroBudget)
        );
        // The boundary case — a 100% duty cycle — is legal.
        let full = SchedConfig::budgeted(1_000_000, 1_000_000).unwrap();
        assert_eq!((full.budget_ns, full.quantum_ns), (1_000_000, 1_000_000));
        // Every error renders a non-empty explanation.
        for err in [
            SchedConfigError::ZeroBudget,
            SchedConfigError::ZeroQuantum,
            SchedConfigError::BudgetExceedsQuantum {
                budget_ns: 2,
                quantum_ns: 1,
            },
        ] {
            assert!(!format!("{err}").is_empty());
        }
    }

    #[test]
    fn retuned_budget_takes_effect_between_slices() {
        let (mut dev, _) = heated_device(256, 3, 16);
        let mut sched = ScrubScheduler::start(&dev, SchedConfig::slice_budget(1).unwrap());
        sched.run_slice(&mut dev).unwrap(); // one line on the tiny budget
        assert_eq!(sched.progress().verified, 1);
        // Retune generously: the next slice drains everything left.
        sched.set_budget_ns(u64::MAX);
        match sched.run_slice(&mut dev).unwrap() {
            SliceOutcome::Ran { lines, .. } => assert_eq!(lines, 15),
            other => panic!("{other:?}"),
        }
        assert!(sched.is_complete());
    }

    #[test]
    #[should_panic(expected = "zero budget")]
    fn retuning_to_zero_panics() {
        let (dev, _) = heated_device(64, 3, 2);
        let mut sched = ScrubScheduler::start(&dev, SchedConfig::default());
        sched.set_budget_ns(0);
    }

    #[test]
    #[should_panic(expected = "saturate at 100%")]
    fn retuning_past_the_quantum_panics() {
        // The µs-for-ns unit slip SchedConfig::budgeted rejects must be
        // just as loud when it arrives through a mid-pass retune.
        let (dev, _) = heated_device(64, 3, 2);
        let mut sched =
            ScrubScheduler::start(&dev, SchedConfig::budgeted(1_000_000, 10_000_000).unwrap());
        sched.set_budget_ns(10_000_001);
    }
}
