//! Reader–writer line locking — the concurrency-control primitive of the
//! foreground core.
//!
//! A [`LineLockTable`] guards heated lines (keyed by start address) so
//! budgeted scrub slices and foreground mutations can interleave without
//! one global handle. The table is deliberately small: per-line
//! reader/writer state in one map, condition-variable wakeups, RAII
//! guards. What makes it safe is not the table but the **lock-ordering
//! discipline** every caller follows (documented in
//! `docs/ARCHITECTURE.md` and enforced by the APIs here):
//!
//! 1. **Line locks are ranked by start address.** A caller that needs
//!    several line locks acquires them in ascending order —
//!    [`LineLockTable::write_many`] sorts for you, so there is no way to
//!    express an out-of-order multi-acquisition.
//! 2. **Line locks before the device.** A thread may block on a line lock
//!    only while it does *not* hold the device (the `ConcurrentFs`
//!    mutex). Anything already holding the device must use the `try_*`
//!    variants and treat contention as "defer" — never as "wait".
//!    [`crate::sched::ScrubScheduler::run_slice_locked`] is the canonical
//!    example: it try-reads each candidate line and leaves contended lines
//!    queued for a later slice.
//!
//! Together the two rules make the system deadlock-free by construction:
//! all blocking acquisitions happen along a single global order
//! (ascending lines, then the device), and every cycle-closing edge is a
//! try-lock that backs off instead of waiting.
//!
//! # Examples
//!
//! ```
//! use sero_core::locks::LineLockTable;
//!
//! let table = LineLockTable::new();
//! let audit = table.read(16); // e.g. an auditor pinning line 16
//! assert!(table.try_read(16).is_some(), "readers share");
//! assert!(table.try_write(16).is_none(), "writers must defer");
//! drop(audit);
//! assert!(table.try_write(16).is_some());
//! ```

use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard};

#[derive(Debug, Default)]
struct LockState {
    readers: usize,
    writer: bool,
}

/// A table of per-line reader–writer locks keyed by line start address.
///
/// Many readers or one writer per line; uncontended lines carry no state.
/// See the [module docs](self) for the ordering discipline that keeps the
/// table deadlock-free.
#[derive(Debug, Default)]
pub struct LineLockTable {
    lines: Mutex<HashMap<u64, LockState>>,
    released: Condvar,
}

impl LineLockTable {
    /// An empty table.
    pub fn new() -> LineLockTable {
        LineLockTable::default()
    }

    /// A poisoned map only means some thread panicked while *touching
    /// bookkeeping*; the reader/writer counts themselves are updated
    /// atomically under the map lock, so the state is still consistent.
    fn map(&self) -> MutexGuard<'_, HashMap<u64, LockState>> {
        self.lines
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Takes a shared (read) lock on `line`, blocking while a writer holds
    /// it. Callers must not hold the device — see the ordering rules.
    pub fn read(&self, line: u64) -> LineReadGuard<'_> {
        let mut map = self.map();
        loop {
            let state = map.entry(line).or_default();
            if !state.writer {
                state.readers += 1;
                return LineReadGuard { table: self, line };
            }
            map = self
                .released
                .wait(map)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Takes a shared (read) lock on `line` without blocking; `None` when
    /// a writer holds it. Safe while holding the device.
    pub fn try_read(&self, line: u64) -> Option<LineReadGuard<'_>> {
        let mut map = self.map();
        let state = map.entry(line).or_default();
        if state.writer {
            None
        } else {
            state.readers += 1;
            Some(LineReadGuard { table: self, line })
        }
    }

    /// Takes the exclusive (write) lock on `line`, blocking while readers
    /// or a writer hold it. Callers must not hold the device.
    pub fn write(&self, line: u64) -> LineWriteGuard<'_> {
        let mut map = self.map();
        loop {
            let state = map.entry(line).or_default();
            if !state.writer && state.readers == 0 {
                state.writer = true;
                return LineWriteGuard { table: self, line };
            }
            map = self
                .released
                .wait(map)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Takes the exclusive (write) lock on `line` without blocking; `None`
    /// when any holder exists. Safe while holding the device.
    pub fn try_write(&self, line: u64) -> Option<LineWriteGuard<'_>> {
        let mut map = self.map();
        let state = map.entry(line).or_default();
        if state.writer || state.readers > 0 {
            None
        } else {
            state.writer = true;
            Some(LineWriteGuard { table: self, line })
        }
    }

    /// Takes exclusive locks on every line in `lines`, acquiring in
    /// ascending address order (duplicates collapse) — the only
    /// multi-acquisition the discipline permits. Callers must not hold the
    /// device.
    pub fn write_many(&self, lines: &[u64]) -> Vec<LineWriteGuard<'_>> {
        let mut sorted: Vec<u64> = lines.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.into_iter().map(|line| self.write(line)).collect()
    }

    /// Whether any lock (shared or exclusive) is currently held on `line`.
    pub fn is_locked(&self, line: u64) -> bool {
        self.map()
            .get(&line)
            .is_some_and(|s| s.writer || s.readers > 0)
    }

    fn release_read(&self, line: u64) {
        let mut map = self.map();
        if let Some(state) = map.get_mut(&line) {
            state.readers = state.readers.saturating_sub(1);
            if state.readers == 0 && !state.writer {
                map.remove(&line);
            }
        }
        drop(map);
        self.released.notify_all();
    }

    fn release_write(&self, line: u64) {
        let mut map = self.map();
        if let Some(state) = map.get_mut(&line) {
            state.writer = false;
            if state.readers == 0 {
                map.remove(&line);
            }
        }
        drop(map);
        self.released.notify_all();
    }
}

/// RAII shared lock on one line; released (with a wakeup) on drop.
#[derive(Debug)]
pub struct LineReadGuard<'a> {
    table: &'a LineLockTable,
    line: u64,
}

impl LineReadGuard<'_> {
    /// The locked line's start address.
    pub fn line(&self) -> u64 {
        self.line
    }
}

impl Drop for LineReadGuard<'_> {
    fn drop(&mut self) {
        self.table.release_read(self.line);
    }
}

/// RAII exclusive lock on one line; released (with a wakeup) on drop.
#[derive(Debug)]
pub struct LineWriteGuard<'a> {
    table: &'a LineLockTable,
    line: u64,
}

impl LineWriteGuard<'_> {
    /// The locked line's start address.
    pub fn line(&self) -> u64 {
        self.line
    }
}

impl Drop for LineWriteGuard<'_> {
    fn drop(&mut self) {
        self.table.release_write(self.line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn readers_share_writers_exclude() {
        let t = LineLockTable::new();
        let r1 = t.read(8);
        let r2 = t.try_read(8).expect("readers share");
        assert!(t.try_write(8).is_none(), "writer must wait for readers");
        drop(r1);
        assert!(t.try_write(8).is_none(), "one reader still holds");
        drop(r2);
        let w = t.try_write(8).expect("free line");
        assert!(t.try_read(8).is_none(), "readers must wait for the writer");
        assert!(t.try_write(8).is_none(), "writers are exclusive");
        drop(w);
        assert!(!t.is_locked(8), "idle lines carry no state");
    }

    #[test]
    fn locks_are_per_line() {
        let t = LineLockTable::new();
        let _w = t.write(0);
        assert!(t.try_write(16).is_some(), "other lines are independent");
    }

    #[test]
    fn write_many_sorts_and_dedups() {
        let t = LineLockTable::new();
        let guards = t.write_many(&[24, 8, 24, 0]);
        assert_eq!(
            guards.iter().map(|g| g.line()).collect::<Vec<_>>(),
            vec![0, 8, 24],
            "ascending acquisition order, duplicates collapsed"
        );
        assert!(t.try_read(8).is_none());
    }

    #[test]
    fn blocking_read_waits_for_writer() {
        let t = Arc::new(LineLockTable::new());
        let w = t.write(4);
        let t2 = Arc::clone(&t);
        let reader = thread::spawn(move || {
            let _r = t2.read(4); // blocks until the writer drops
        });
        thread::sleep(std::time::Duration::from_millis(20));
        assert!(!reader.is_finished(), "reader must wait for the writer");
        drop(w);
        reader.join().unwrap();
    }

    #[test]
    fn contended_multi_writer_stress_terminates() {
        let t = Arc::new(LineLockTable::new());
        let mut handles = Vec::new();
        for i in 0..8 {
            let t = Arc::clone(&t);
            handles.push(thread::spawn(move || {
                for round in 0..200u64 {
                    // Overlapping multi-line sets in thread-varying orders:
                    // write_many's ascending acquisition is what keeps this
                    // from deadlocking.
                    let lines = [(i + round) % 4 * 8, (i + 2 * round) % 4 * 8];
                    let _guards = t.write_many(&lines);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for line in [0, 8, 16, 24] {
            assert!(!t.is_locked(line));
        }
    }
}
