//! The command dispatch: [`SeroFs::handle`] turns a wire
//! [`Request`] into a wire [`Response`].
//!
//! This is the *single* command path — `sero-server` feeds it frames
//! from sockets, in-process callers and tests feed it constructed
//! requests, and both get identical semantics: the same validation, the
//! same error codes, the same tamper-evidence shape. The file system's
//! typed methods ([`SeroFs::create`], [`SeroFs::verify`], …) stay the
//! primary in-process API; `handle` is the boundary form of exactly
//! those methods, not a second implementation.
//!
//! Two behaviours deserve note:
//!
//! * **Tamper evidence is an error code, not a payload.** A verify that
//!   finds evidence answers [`ErrorCode::TamperDetected`] with the full
//!   report text in the detail. Remote auditors see detection fail
//!   loudly; only [`VerifyOutcome::Intact`] and
//!   [`VerifyOutcome::NotHeated`] produce a `Verified` response.
//! * **Scrub-over-the-wire advances the simulated clock on throttle.**
//!   The device clock only moves when operations spend it. A remote
//!   driver granting ticks to a budgeted pass would otherwise spin
//!   forever on [`SliceOutcome::Throttled`]: wall-clock time passes
//!   between its requests, but nothing charges the simulated clock. So
//!   a tick that comes back throttled advances the clock to
//!   `resume_at_ns` — modelling the daemon idling until the next
//!   quantum opens — which keeps wire-driven scrubs deterministic *and*
//!   terminating.
//!
//! Raw writes ([`Request::RawWrite`]) are the §5 threat model's
//! "laptop with the appropriate interface" crossing the wire: they
//! bypass every protocol check on purpose, so tamper-*detection* paths
//! can be exercised end-to-end (tamper drills, the CI smoke test).
//! `handle` always serves them — policy (the daemon's `--allow-raw`
//! flag) lives in `sero-server`, which refuses the request with
//! [`ErrorCode::UnsupportedCommand`] before dispatch unless enabled.

use crate::alloc::WriteClass;
use crate::error::FsError;
use crate::fs::SeroFs;
use sero_core::sched::{SchedConfig, SchedState, ScrubScheduler, SliceOutcome};
use sero_core::scrub::{ScrubConfig, ScrubMode};
use sero_core::tamper::VerifyOutcome;
use sero_probe::sector::SECTOR_DATA_BYTES;
use sero_proto::{
    ErrorCode, Request, Response, WireClass, WireError, WireFileInfo, WireMemberStatus,
    WireSchedState, WireScrubStatus, WireSliceOutcome, WireVerdict,
};
use std::ops::Bound::{Excluded, Unbounded};

impl From<FsError> for WireError {
    fn from(e: FsError) -> WireError {
        let code = match &e {
            FsError::Device(dev) => return WireError::from(dev.clone()),
            FsError::NotFound { .. } => ErrorCode::NotFound,
            FsError::Exists { .. } => ErrorCode::Exists,
            FsError::ReadOnlyFile { .. } => ErrorCode::ReadOnlyFile,
            FsError::NoSpace { .. } => ErrorCode::NoSpace,
            FsError::FileTooLarge { .. } => ErrorCode::FileTooLarge,
            FsError::BadName { .. } => ErrorCode::BadName,
            FsError::Corrupt { .. } => ErrorCode::Corrupt,
            FsError::CheckpointOverflow { .. } => ErrorCode::NoSpace,
            FsError::Degraded { .. } => ErrorCode::Degraded,
        };
        WireError::new(code, e)
    }
}

fn class_of(wire: WireClass) -> WriteClass {
    match wire {
        WireClass::Normal => WriteClass::Normal,
        WireClass::Archival => WriteClass::Archival,
    }
}

/// `u128` device times saturate into `u64` on the wire; at the simulated
/// clock's nanosecond scale a real pass never gets near the boundary.
fn wire_ns(ns: u128) -> u64 {
    u64::try_from(ns).unwrap_or(u64::MAX)
}

fn wire_status(sched: &ScrubScheduler) -> WireScrubStatus {
    let p = sched.progress();
    WireScrubStatus {
        state: match p.state {
            SchedState::Running => WireSchedState::Running,
            SchedState::Paused => WireSchedState::Paused,
            SchedState::Cancelled => WireSchedState::Cancelled,
            SchedState::Complete => WireSchedState::Complete,
        },
        epoch: p.epoch,
        incremental: p.mode == ScrubMode::Incremental,
        verified: p.verified as u64,
        remaining: p.remaining as u64,
        skipped: p.skipped as u64,
        tampered: p.tampered as u64,
        slices: p.slices as u64,
        scrub_device_ns: wire_ns(p.scrub_device_ns),
    }
}

impl SeroFs {
    /// Executes one wire [`Request`] and returns its [`Response`].
    ///
    /// Never fails: every error becomes [`Response::Error`] with a
    /// wire-stable [`ErrorCode`] and the originating error's `Display`
    /// text. See the [module docs](crate::serve) for the semantics that
    /// differ from the typed methods (tamper evidence as an error code,
    /// clock advance on throttled scrub ticks).
    pub fn handle(&mut self, req: Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::Create { name, data, class } => {
                match self.create(&name, &data, class_of(class)) {
                    Ok(ino) => Response::Created { ino },
                    Err(e) => Response::Error(e.into()),
                }
            }
            Request::Read { name } => match self.read(&name) {
                Ok(bytes) => Response::Data { bytes },
                Err(e) => Response::Error(e.into()),
            },
            Request::Write { name, data, class } => {
                match self.write(&name, &data, class_of(class)) {
                    Ok(()) => Response::Written,
                    Err(e) => Response::Error(e.into()),
                }
            }
            Request::Remove { name } => match self.remove(&name) {
                Ok(()) => Response::Removed,
                Err(e) => Response::Error(e.into()),
            },
            Request::Stat { name } => match self.stat(&name) {
                Ok(info) => Response::Stat(WireFileInfo {
                    ino: info.ino,
                    size: info.size,
                    blocks: info.blocks as u64,
                    mtime: info.mtime,
                    heated: info.heated.map(Into::into),
                    degraded: info.degraded,
                }),
                Err(e) => Response::Error(e.into()),
            },
            Request::List { cursor, limit } => self.handle_list(cursor.as_deref(), limit),
            Request::Heat {
                name,
                metadata,
                timestamp,
            } => match self.heat(&name, metadata, timestamp) {
                Ok(line) => Response::Heated { line: line.into() },
                Err(e) => Response::Error(e.into()),
            },
            Request::Verify { name } => match self.verify(&name) {
                Ok(VerifyOutcome::Intact { payload }) => Response::Verified(WireVerdict::Intact {
                    line: payload.line().into(),
                    digest: payload.digest().as_bytes().to_vec(),
                    timestamp: payload.timestamp(),
                    metadata: payload.metadata().to_vec(),
                }),
                Ok(VerifyOutcome::NotHeated) => Response::Verified(WireVerdict::NotHeated),
                Ok(VerifyOutcome::Tampered(report)) => {
                    Response::Error(WireError::new(ErrorCode::TamperDetected, report))
                }
                Err(e) => Response::Error(e.into()),
            },
            Request::ScrubStart {
                budget_ns,
                quantum_ns,
                incremental,
            } => self.handle_scrub_start(budget_ns, quantum_ns, incremental),
            Request::ScrubTick => self.handle_scrub_tick(),
            Request::ScrubStatus => Response::ScrubState {
                status: self.service_scrub.as_ref().map(wire_status),
            },
            Request::FleetStatus => Response::FleetStatus {
                members: vec![self.member_status(0)],
            },
            Request::RawWrite { pba, data } => {
                let sector: &[u8; SECTOR_DATA_BYTES] = match data.as_slice().try_into() {
                    Ok(s) => s,
                    Err(_) => {
                        return Response::Error(WireError::new(
                            ErrorCode::InvalidArgument,
                            format!(
                                "raw write wants exactly {SECTOR_DATA_BYTES} bytes, got {}",
                                data.len()
                            ),
                        ))
                    }
                };
                match self.device_mut().probe_mut().mws(pba, sector) {
                    Ok(_) => Response::RawWritten,
                    Err(e) => Response::Error(WireError::new(ErrorCode::SectorIo, e)),
                }
            }
        }
    }

    /// One page of the listing, walked off the directory B-tree: names
    /// after `cursor` (exclusive), capped by `limit` (0 = no caller cap)
    /// and by a byte budget of half the frame payload limit, so the
    /// encoded [`Response::Names`] can never trip the frame encoder no
    /// matter how many files exist. The first name always goes in.
    ///
    /// A page costs O(page + log n), not O(namespace): one descent to the
    /// cursor's successor (a range bound, so a name removed between pages
    /// does not strand the cursor), then one step per name, plus a
    /// one-name lookahead. The walk stops on the first name it does not
    /// take, and that name is the proof that names remain, so `next` is
    /// the page's last name exactly when the listing continues.
    fn handle_list(&self, cursor: Option<&str>, limit: u32) -> Response {
        const PAGE_BYTE_BUDGET: usize = sero_proto::MAX_PAYLOAD_BYTES / 2;
        let lower = cursor.map_or(Unbounded, Excluded);
        let mut names = Vec::new();
        let mut bytes = 0usize;
        let mut next = None;
        for (name, _) in self.directory.range::<str, _>((lower, Unbounded)) {
            bytes += 4 + name.len();
            let full = limit != 0 && names.len() as u32 >= limit;
            if full || (bytes > PAGE_BYTE_BUDGET && !names.is_empty()) {
                next = names.last().cloned();
                break;
            }
            names.push(name.clone());
        }
        Response::Names { names, next }
    }

    fn handle_scrub_start(
        &mut self,
        budget_ns: u64,
        quantum_ns: u64,
        incremental: bool,
    ) -> Response {
        if let Some(sched) = &self.service_scrub {
            if !matches!(sched.state(), SchedState::Complete | SchedState::Cancelled) {
                return Response::Error(WireError::new(
                    ErrorCode::ScrubActive,
                    format!(
                        "a scrub pass toward epoch {} is already {:?}",
                        sched.progress().epoch,
                        sched.state()
                    ),
                ));
            }
        }
        let mut config = if budget_ns == 0 && quantum_ns == 0 {
            SchedConfig::greedy()
        } else if quantum_ns == 0 {
            match SchedConfig::slice_budget(budget_ns) {
                Ok(c) => c,
                Err(e) => return Response::Error(e.into()),
            }
        } else {
            match SchedConfig::budgeted(budget_ns, quantum_ns) {
                Ok(c) => c,
                Err(e) => return Response::Error(e.into()),
            }
        };
        config.scrub = ScrubConfig {
            mode: if incremental {
                ScrubMode::Incremental
            } else {
                ScrubMode::Full
            },
            ..config.scrub
        };
        let sched = ScrubScheduler::start(self.device(), config);
        let p = sched.progress();
        let response = Response::ScrubStarted {
            epoch: p.epoch,
            incremental,
            pending: p.remaining as u64,
            skipped: p.skipped as u64,
        };
        self.service_scrub = Some(sched);
        response
    }

    fn handle_scrub_tick(&mut self) -> Response {
        let mut sched = match self.service_scrub.take() {
            Some(s) => s,
            None => {
                return Response::Error(WireError::new(
                    ErrorCode::NoScrub,
                    "no scrub pass has been started",
                ))
            }
        };
        let outcome = match sched.run_slice(self.device_mut()) {
            Ok(o) => o,
            Err(e) => {
                self.service_scrub = Some(sched);
                return Response::Error(e.into());
            }
        };
        let wire_outcome = match outcome {
            SliceOutcome::Ran { lines, device_ns } => WireSliceOutcome::Ran {
                lines: lines as u64,
                device_ns: wire_ns(device_ns),
            },
            SliceOutcome::Throttled { resume_at_ns } => {
                // Idle until the next quantum opens (see the module docs):
                // without this a remote driver spins on Throttled forever,
                // because nothing else charges the simulated clock.
                let now = self.device().probe().clock().elapsed_ns();
                if resume_at_ns > now {
                    self.device_mut()
                        .probe_mut()
                        .advance_clock(wire_ns(resume_at_ns - now));
                }
                WireSliceOutcome::Throttled {
                    resume_at_ns: wire_ns(resume_at_ns),
                }
            }
            SliceOutcome::Paused => WireSliceOutcome::Paused,
            SliceOutcome::Idle => WireSliceOutcome::Idle,
        };
        let status = wire_status(&sched);
        self.service_scrub = Some(sched);
        Response::ScrubTicked {
            outcome: wire_outcome,
            status,
        }
    }

    fn member_status(&self, member: u32) -> WireMemberStatus {
        let dev = self.device();
        let stats = dev.stats();
        let probe = dev.load_probe();
        let flagged = dev.heated_lines().filter(|r| r.flagged).count() as u64;
        WireMemberStatus {
            member,
            total_blocks: stats.total_blocks,
            read_only_blocks: stats.read_only_blocks,
            wmrm_blocks: stats.wmrm_blocks,
            heated_lines: stats.heated_lines as u64,
            flagged_lines: flagged,
            scrub_epoch: dev.scrub_epoch(),
            arrivals: probe.arrivals(),
            ewma_gap_ns: probe.ewma_gap_ns(),
            ewma_busy_ns: probe.ewma_busy_ns(),
            utilization_ppm: (probe.utilization() * 1_000_000.0) as u32,
            device_clock_ns: wire_ns(dev.probe().clock().elapsed_ns()),
            quarantined_blocks: dev.quarantined_count(),
            degraded: dev.is_degraded(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::FsConfig;
    use sero_core::device::SeroDevice;

    fn fresh(blocks: u64) -> SeroFs {
        SeroFs::format(SeroDevice::with_blocks(blocks), FsConfig::default()).unwrap()
    }

    fn create(fs: &mut SeroFs, name: &str, data: &[u8]) {
        let resp = fs.handle(Request::Create {
            name: name.into(),
            data: data.to_vec(),
            class: WireClass::Archival,
        });
        assert!(matches!(resp, Response::Created { .. }), "{resp:?}");
    }

    #[test]
    fn command_crud_round_trip() {
        let mut fs = fresh(256);
        assert_eq!(fs.handle(Request::Ping), Response::Pong);
        create(&mut fs, "a.txt", b"hello");
        assert_eq!(
            fs.handle(Request::Read {
                name: "a.txt".into()
            }),
            Response::Data {
                bytes: b"hello".to_vec()
            }
        );
        assert_eq!(
            fs.handle(Request::Write {
                name: "a.txt".into(),
                data: b"rewritten".to_vec(),
                class: WireClass::Normal,
            }),
            Response::Written
        );
        match fs.handle(Request::Stat {
            name: "a.txt".into(),
        }) {
            Response::Stat(info) => {
                assert_eq!(info.size, 9);
                assert_eq!(info.heated, None);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            fs.handle(Request::list_all()),
            Response::Names {
                names: vec!["a.txt".into()],
                next: None,
            }
        );
        assert_eq!(
            fs.handle(Request::Remove {
                name: "a.txt".into()
            }),
            Response::Removed
        );
        match fs.handle(Request::Read {
            name: "a.txt".into(),
        }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::NotFound),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_carry_wire_codes_and_display_text() {
        let mut fs = fresh(256);
        create(&mut fs, "frozen", &[7u8; 900]);
        match fs.handle(Request::Heat {
            name: "frozen".into(),
            metadata: b"audit".to_vec(),
            timestamp: 11,
        }) {
            Response::Heated { line } => assert!(line.to_line().is_ok()),
            other => panic!("{other:?}"),
        }
        match fs.handle(Request::Write {
            name: "frozen".into(),
            data: b"x".to_vec(),
            class: WireClass::Normal,
        }) {
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::ReadOnlyFile);
                assert!(e.detail.contains("frozen"), "{}", e.detail);
            }
            other => panic!("{other:?}"),
        }
        match fs.handle(Request::Remove {
            name: "frozen".into(),
        }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::ReadOnlyFile),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn verify_reports_intact_not_heated_and_tampered() {
        let mut fs = fresh(256);
        create(&mut fs, "live", b"mutable");
        create(&mut fs, "vault", &[3u8; 1200]);
        fs.handle(Request::Heat {
            name: "vault".into(),
            metadata: b"case-7".to_vec(),
            timestamp: 99,
        });

        assert_eq!(
            fs.handle(Request::Verify {
                name: "live".into()
            }),
            Response::Verified(WireVerdict::NotHeated)
        );
        match fs.handle(Request::Verify {
            name: "vault".into(),
        }) {
            Response::Verified(WireVerdict::Intact {
                timestamp,
                metadata,
                ..
            }) => {
                assert_eq!(timestamp, 99);
                assert_eq!(metadata, b"case-7");
            }
            other => panic!("{other:?}"),
        }

        // Tamper through the raw interface; detection crosses as an error
        // code carrying the report text, never as a success shape.
        let line = fs.stat("vault").unwrap().heated.unwrap();
        assert_eq!(
            fs.handle(Request::RawWrite {
                pba: line.start() + 2,
                data: vec![0xEE; SECTOR_DATA_BYTES],
            }),
            Response::RawWritten
        );
        match fs.handle(Request::Verify {
            name: "vault".into(),
        }) {
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::TamperDetected);
                assert!(e.detail.contains("TAMPER EVIDENCE"), "{}", e.detail);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn raw_write_validates_sector_size() {
        let mut fs = fresh(256);
        match fs.handle(Request::RawWrite {
            pba: 40,
            data: vec![1, 2, 3],
        }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::InvalidArgument),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scrub_over_commands_ticks_to_completion() {
        let mut fs = fresh(512);
        for i in 0..4 {
            create(&mut fs, &format!("f{i}"), &[i as u8 + 1; 1100]);
            fs.handle(Request::Heat {
                name: format!("f{i}"),
                metadata: vec![],
                timestamp: i as u64,
            });
        }

        match fs.handle(Request::ScrubTick) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::NoScrub),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            fs.handle(Request::ScrubStatus),
            Response::ScrubState { status: None }
        );

        // A budgeted incremental pass, driven entirely over commands. The
        // tight budget forces Throttled outcomes; the handler's clock
        // advance keeps the loop terminating.
        match fs.handle(Request::ScrubStart {
            budget_ns: 200_000,
            quantum_ns: 1_000_000,
            incremental: true,
        }) {
            Response::ScrubStarted { epoch, pending, .. } => {
                assert_eq!(epoch, 1);
                assert_eq!(pending, 4);
            }
            other => panic!("{other:?}"),
        }
        // A second start while running is refused.
        match fs.handle(Request::ScrubStart {
            budget_ns: 0,
            quantum_ns: 0,
            incremental: false,
        }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::ScrubActive),
            other => panic!("{other:?}"),
        }

        let mut throttled = 0;
        for _ in 0..200 {
            match fs.handle(Request::ScrubTick) {
                Response::ScrubTicked { outcome, status } => {
                    if let WireSliceOutcome::Throttled { .. } = outcome {
                        throttled += 1;
                    }
                    if status.state == WireSchedState::Complete {
                        assert_eq!(status.verified, 4);
                        assert_eq!(status.tampered, 0);
                        break;
                    }
                }
                other => panic!("{other:?}"),
            }
        }
        assert!(throttled > 0, "tight budget should throttle at least once");
        match fs.handle(Request::ScrubStatus) {
            Response::ScrubState { status: Some(s) } => {
                assert_eq!(s.state, WireSchedState::Complete);
                assert_eq!(s.epoch, 1);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(fs.device().scrub_epoch(), 1);

        // A completed pass no longer blocks the next one.
        match fs.handle(Request::ScrubStart {
            budget_ns: 0,
            quantum_ns: 0,
            incremental: true,
        }) {
            Response::ScrubStarted { epoch, .. } => assert_eq!(epoch, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scrub_start_rejects_bad_budgets() {
        let mut fs = fresh(256);
        match fs.handle(Request::ScrubStart {
            budget_ns: 2_000_000,
            quantum_ns: 1_000_000,
            incremental: false,
        }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::BudgetExceedsQuantum),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fleet_status_reports_capacity_and_evidence() {
        let mut fs = fresh(256);
        create(&mut fs, "a", &[1u8; 600]);
        fs.handle(Request::Heat {
            name: "a".into(),
            metadata: vec![],
            timestamp: 0,
        });
        match fs.handle(Request::FleetStatus) {
            Response::FleetStatus { members } => {
                assert_eq!(members.len(), 1);
                let m = &members[0];
                assert_eq!(m.member, 0);
                assert_eq!(m.total_blocks, 256);
                assert_eq!(m.heated_lines, 1);
                assert!(m.read_only_blocks > 0);
                assert_eq!(m.total_blocks, m.read_only_blocks + m.wmrm_blocks);
                assert!(m.device_clock_ns > 0);
            }
            other => panic!("{other:?}"),
        }
    }
}
