//! [`ConcurrentFs`]: the shared, multi-caller command path.
//!
//! [`SeroFs::handle`] is `&mut self` — one caller at a time. This module
//! puts the file system behind one lock so any number of threads can
//! share it through clones of a [`ConcurrentFs`]. The device has one
//! sled, so requests run one at a time whatever the front end; what
//! matters is how many arrive together. [`ConcurrentFs::handle_batch`]
//! takes the lock once for a whole window of requests (the `sero-server`
//! reactor passes every request readable in one event-loop sweep) and
//! feeds runs of read-class requests (`Read`, `Verify`) through the
//! admission scheduler ([`sero_core::admission`]) — per-region staging
//! queues drained in one elevator sweep, coalesced into bulk extent
//! transfers. Queue depth is what makes the one-seek-per-extent
//! machinery pay off under load: eight concurrent readers cost roughly
//! one sled pass, not eight scattered seeks. `exp_served` pins the
//! ratio. [`ConcurrentFs::handle`] is a window of one.
//!
//! # Ordering and equivalence
//!
//! A window executes in order, with runs of consecutive read-class
//! requests executed as one admission batch (whose batch order *is* its
//! serialized schedule — see [`sero_core::admission`]). Every response
//! and every registry side effect is equivalent to executing the window
//! one request at a time through [`SeroFs::handle`]; the
//! `concurrency_props` proptests assert byte-identical tamper evidence
//! between the two. Windows from different threads run in the order they
//! take the lock — one valid interleaving, with no cross-thread ordering
//! promise beyond linearizability.
//!
//! # Scrub
//!
//! A [`Request::ScrubTick`] is not special here: it executes through
//! [`SeroFs::handle`] like any other non-read request, inside the window
//! that holds the lock. The window mutex is the only serialization
//! mechanism, so a scrub slice never overlaps a foreground write and
//! never reads a line mid-write; `concurrency_props` checks that the
//! evidence matches the serialized schedule byte for byte.
//!
//! # Examples
//!
//! ```
//! use sero_fs::concurrent::ConcurrentFs;
//! use sero_fs::fs::{FsConfig, SeroFs};
//! use sero_core::device::SeroDevice;
//! use sero_proto::{Request, Response, WireClass};
//! use std::thread;
//!
//! let fs = SeroFs::format(SeroDevice::with_blocks(256), FsConfig::default())?;
//! let cfs = ConcurrentFs::new(fs);
//! cfs.handle(Request::Create {
//!     name: "shared.dat".into(),
//!     data: vec![7; 1500],
//!     class: WireClass::Archival,
//! });
//!
//! // Any number of threads share one ConcurrentFs by cloning it.
//! let readers: Vec<_> = (0..4)
//!     .map(|_| {
//!         let cfs = cfs.clone();
//!         thread::spawn(move || {
//!             cfs.handle(Request::Read { name: "shared.dat".into() })
//!         })
//!     })
//!     .collect();
//! for reader in readers {
//!     assert!(matches!(reader.join().unwrap(), Response::Data { bytes } if bytes.len() == 1500));
//! }
//! # Ok::<(), sero_fs::error::FsError>(())
//! ```

use crate::error::FsError;
use crate::fs::SeroFs;
use sero_core::admission::{AdmissionQueues, AdmissionStats, FgOp, FgResult, Ticket};
use sero_core::tamper::VerifyOutcome;
use sero_proto::{ErrorCode, Request, Response, WireError, WireVerdict};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// The region count for the admission queues: enough shards that an
/// elevator sweep over a loaded queue approximates an ascending pass.
const ADMISSION_REGIONS: u32 = 8;

/// The lock-protected state: the file system plus its admission queues.
struct Core {
    fs: SeroFs,
    admission: AdmissionQueues,
}

/// A cloneable, thread-safe handle to one [`SeroFs`]. See the
/// [module docs](self) for the batching model.
#[derive(Clone)]
pub struct ConcurrentFs {
    core: Arc<Mutex<Core>>,
}

fn lock_ignoring_poison<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // A poisoning panic happened mid-request on some other thread. The
    // evidence machinery lives on the device and every registry update is
    // applied atomically under this lock, so keep serving rather than
    // going dark — the same call the daemon made on its old global mutex.
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl ConcurrentFs {
    /// Wraps `fs` for concurrent callers.
    pub fn new(fs: SeroFs) -> ConcurrentFs {
        let blocks = fs.device().block_count();
        ConcurrentFs {
            core: Arc::new(Mutex::new(Core {
                fs,
                admission: AdmissionQueues::new(blocks, ADMISSION_REGIONS),
            })),
        }
    }

    /// Admission merge counters so far (blocks deduplicated, ops merged,
    /// fallbacks) — the observable proof that queue depth turned into
    /// bulk transfers.
    pub fn admission_stats(&self) -> AdmissionStats {
        lock_ignoring_poison(&self.core).admission.stats()
    }

    /// Runs `f` with exclusive access to the underlying [`SeroFs`] — the
    /// maintenance hatch for embedders (mount-time checks, tests,
    /// benchmarks). Blocks until the window in progress finishes.
    pub fn with_fs<R>(&self, f: impl FnOnce(&mut SeroFs) -> R) -> R {
        f(&mut lock_ignoring_poison(&self.core).fs)
    }

    /// Executes one wire [`Request`] and returns its [`Response`] — a
    /// window of one, safe to call from any number of threads on clones
    /// of one `ConcurrentFs`. Semantics are identical to
    /// [`SeroFs::handle`] (same validation, same error codes, same
    /// tamper-evidence shape).
    pub fn handle(&self, request: Request) -> Response {
        self.handle_batch(vec![request])
            .pop()
            .expect("a window answers every request")
    }

    /// Executes a window of requests under one lock and returns their
    /// responses in order: runs of consecutive read-class requests go
    /// through the admission scheduler as one batch; everything else
    /// executes through [`SeroFs::handle`] in arrival order. This is how
    /// the reactor, the deterministic benches and the proptests model `n`
    /// clients arriving together.
    pub fn handle_batch(&self, requests: Vec<Request>) -> Vec<Response> {
        let mut core = lock_ignoring_poison(&self.core);
        let mut responses = Vec::with_capacity(requests.len());
        let mut run: Vec<ReadClass> = Vec::new();
        for request in requests {
            match request {
                Request::Read { name } => run.push(ReadClass::Read(name)),
                Request::Verify { name } => run.push(ReadClass::Verify(name)),
                other => {
                    core.flush_read_run(&mut run, &mut responses);
                    responses.push(core.fs.handle(other));
                }
            }
        }
        core.flush_read_run(&mut run, &mut responses);
        responses
    }
}

impl Core {
    /// Translates a run of read-class requests into admission ops, drains
    /// them as one elevator batch, and appends the wire responses in run
    /// order.
    fn flush_read_run(&mut self, run: &mut Vec<ReadClass>, responses: &mut Vec<Response>) {
        enum Plan {
            /// Waiting on an admission result; for reads, the file size to
            /// truncate the concatenated sectors to.
            Admitted(Ticket, Option<usize>),
            /// Resolved at translation time (lookup failures, unheated
            /// verifies).
            Now(Response),
        }

        if run.is_empty() {
            return;
        }
        let mut plans: Vec<Plan> = Vec::with_capacity(run.len());
        for request in run.drain(..) {
            let plan = match request {
                ReadClass::Read(name) => match lookup(&self.fs, &name) {
                    Ok(inode) => {
                        let pbas = inode.blocks.clone();
                        let size = inode.size as usize;
                        self.fs.stats.blocks_read += pbas.len() as u64;
                        Plan::Admitted(self.admission.submit(FgOp::Read { pbas }), Some(size))
                    }
                    Err(e) => Plan::Now(Response::Error(e.into())),
                },
                ReadClass::Verify(name) => match lookup(&self.fs, &name) {
                    Ok(inode) => match inode.heated {
                        Some(line) => {
                            Plan::Admitted(self.admission.submit(FgOp::Verify { line }), None)
                        }
                        None => Plan::Now(Response::Verified(WireVerdict::NotHeated)),
                    },
                    Err(e) => Plan::Now(Response::Error(e.into())),
                },
            };
            plans.push(plan);
        }

        let sled = self
            .admission
            .region_map()
            .region_of(self.fs.dev.probe().position_block());
        let batch = self.admission.take_batch(sled);
        let mut outcomes: HashMap<Ticket, FgResult> = self
            .admission
            .execute_batch(&mut self.fs.dev, batch)
            .into_iter()
            .collect();

        responses.extend(plans.into_iter().map(|plan| match plan {
            Plan::Now(response) => response,
            Plan::Admitted(ticket, size) => {
                let outcome = outcomes
                    .remove(&ticket)
                    .expect("execute_batch resolves every staged ticket");
                admitted_response(outcome, size)
            }
        }));
    }
}

/// A read-class request staged for admission, by file name.
enum ReadClass {
    Read(String),
    Verify(String),
}

fn lookup<'a>(fs: &'a SeroFs, name: &str) -> Result<&'a crate::inode::Inode, FsError> {
    let ino = fs.directory.get(name).ok_or_else(|| FsError::NotFound {
        name: name.to_string(),
    })?;
    fs.inodes.get(ino).ok_or_else(|| FsError::Corrupt {
        reason: format!("directory names ino {ino} with no inode"),
    })
}

/// Maps an admission outcome to the wire response [`SeroFs::handle`]
/// would have produced for the same operation.
fn admitted_response(outcome: FgResult, size: Option<usize>) -> Response {
    match outcome {
        FgResult::Data(sectors) => {
            let size = size.expect("reads carry their size");
            let mut bytes =
                Vec::with_capacity(sectors.len() * sectors.first().map_or(0, |s| s.len()));
            for sector in &sectors {
                bytes.extend_from_slice(sector);
            }
            bytes.truncate(size);
            Response::Data { bytes }
        }
        FgResult::Verified(VerifyOutcome::Intact { payload }) => {
            Response::Verified(WireVerdict::Intact {
                line: payload.line().into(),
                digest: payload.digest().as_bytes().to_vec(),
                timestamp: payload.timestamp(),
                metadata: payload.metadata().to_vec(),
            })
        }
        FgResult::Verified(VerifyOutcome::NotHeated) => Response::Verified(WireVerdict::NotHeated),
        FgResult::Verified(VerifyOutcome::Tampered(report)) => {
            Response::Error(WireError::new(ErrorCode::TamperDetected, report))
        }
        FgResult::Failed(e) => Response::Error(WireError::from(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::FsConfig;
    use sero_core::device::SeroDevice;
    use sero_probe::sector::SECTOR_DATA_BYTES;
    use sero_proto::{WireClass, WireSchedState};
    use std::thread;

    fn fresh(blocks: u64) -> ConcurrentFs {
        ConcurrentFs::new(
            SeroFs::format(SeroDevice::with_blocks(blocks), FsConfig::default()).unwrap(),
        )
    }

    fn create(cfs: &ConcurrentFs, name: &str, data: &[u8]) {
        let resp = cfs.handle(Request::Create {
            name: name.into(),
            data: data.to_vec(),
            class: WireClass::Archival,
        });
        assert!(matches!(resp, Response::Created { .. }), "{resp:?}");
    }

    #[test]
    fn single_caller_matches_serofs_semantics() {
        let cfs = fresh(256);
        assert_eq!(cfs.handle(Request::Ping), Response::Pong);
        create(&cfs, "a", b"payload");
        assert_eq!(
            cfs.handle(Request::Read { name: "a".into() }),
            Response::Data {
                bytes: b"payload".to_vec()
            }
        );
        match cfs.handle(Request::Read {
            name: "nope".into(),
        }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::NotFound),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            cfs.handle(Request::Verify { name: "a".into() }),
            Response::Verified(WireVerdict::NotHeated)
        );
    }

    #[test]
    fn staged_batch_merges_reads_and_matches_serial_responses() {
        let cfs = fresh(512);
        for i in 0..6 {
            create(&cfs, &format!("f{i}"), &[i as u8; 1200]);
        }
        let requests: Vec<Request> = (0..6)
            .map(|i| Request::Read {
                name: format!("f{i}"),
            })
            .collect();
        let batched = cfs.handle_batch(requests.clone());

        let serial = fresh(512);
        for i in 0..6 {
            create(&serial, &format!("f{i}"), &[i as u8; 1200]);
        }
        let one_by_one: Vec<Response> = requests.into_iter().map(|r| serial.handle(r)).collect();
        assert_eq!(batched, one_by_one);
        assert!(
            cfs.admission_stats().reads_merged >= 6,
            "{:?}",
            cfs.admission_stats()
        );
    }

    #[test]
    fn concurrent_swarm_serves_every_thread() {
        let cfs = fresh(1024);
        for i in 0..8 {
            create(&cfs, &format!("f{i}"), &[i as u8; 900]);
        }
        let workers: Vec<_> = (0..8)
            .map(|i| {
                let cfs = cfs.clone();
                thread::spawn(move || {
                    for round in 0..30 {
                        let name = format!("f{}", (i + round) % 8);
                        match cfs.handle(Request::Read { name: name.clone() }) {
                            Response::Data { bytes } => {
                                assert_eq!(bytes, vec![name.as_bytes()[1] - b'0'; 900]);
                            }
                            other => panic!("{other:?}"),
                        }
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
    }

    #[test]
    fn scrub_ticks_interleave_with_concurrent_reads() {
        let cfs = fresh(1024);
        for i in 0..6 {
            create(&cfs, &format!("f{i}"), &[i as u8 + 1; 1100]);
            cfs.handle(Request::Heat {
                name: format!("f{i}"),
                metadata: vec![],
                timestamp: i,
            });
        }
        match cfs.handle(Request::ScrubStart {
            budget_ns: 500_000,
            quantum_ns: 1_000_000,
            incremental: true,
        }) {
            Response::ScrubStarted { pending, .. } => assert_eq!(pending, 6),
            other => panic!("{other:?}"),
        }

        let reader = {
            let cfs = cfs.clone();
            thread::spawn(move || {
                for round in 0..40 {
                    let name = format!("f{}", round % 6);
                    assert!(matches!(
                        cfs.handle(Request::Read { name }),
                        Response::Data { .. }
                    ));
                }
            })
        };
        let mut complete = false;
        for _ in 0..400 {
            match cfs.handle(Request::ScrubTick) {
                Response::ScrubTicked { status, .. } => {
                    if status.state == WireSchedState::Complete {
                        assert_eq!(status.verified, 6);
                        assert_eq!(status.tampered, 0);
                        complete = true;
                        break;
                    }
                }
                other => panic!("{other:?}"),
            }
        }
        reader.join().unwrap();
        assert!(complete, "budgeted pass must finish under reader traffic");
    }

    #[test]
    fn tamper_evidence_crosses_the_concurrent_path() {
        let cfs = fresh(512);
        create(&cfs, "vault", &[3u8; 1200]);
        let line = match cfs.handle(Request::Heat {
            name: "vault".into(),
            metadata: b"case".to_vec(),
            timestamp: 9,
        }) {
            Response::Heated { line } => line.to_line().unwrap(),
            other => panic!("{other:?}"),
        };
        assert_eq!(
            cfs.handle(Request::RawWrite {
                pba: line.start() + 1,
                data: vec![0xEE; SECTOR_DATA_BYTES],
            }),
            Response::RawWritten
        );
        match cfs.handle(Request::Verify {
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
    fn a_panic_inside_with_fs_leaves_every_caller_served() {
        // The same history on two file systems: a tampered sealed line
        // and a plain file.
        let setup = |cfs: &ConcurrentFs| {
            create(cfs, "vault", &[3u8; 1200]);
            create(cfs, "plain", b"still here");
            let line = match cfs.handle(Request::Heat {
                name: "vault".into(),
                metadata: b"case".to_vec(),
                timestamp: 9,
            }) {
                Response::Heated { line } => line.to_line().unwrap(),
                other => panic!("{other:?}"),
            };
            let resp = cfs.handle(Request::RawWrite {
                pba: line.start() + 1,
                data: vec![0xEE; SECTOR_DATA_BYTES],
            });
            assert_eq!(resp, Response::RawWritten);
        };
        let cfs = fresh(512);
        let twin = fresh(512);
        setup(&cfs);
        setup(&twin);

        let poisoner = cfs.clone();
        let panicked = thread::spawn(move || poisoner.with_fs(|_| panic!("embedder bug")));
        assert!(panicked.join().is_err());
        assert!(cfs.core.is_poisoned());

        let script = vec![
            Request::Read {
                name: "plain".into(),
            },
            Request::Verify {
                name: "vault".into(),
            },
            Request::Stat {
                name: "plain".into(),
            },
            Request::Read {
                name: "missing".into(),
            },
            Request::Verify {
                name: "vault".into(),
            },
        ];
        let served = {
            let (cfs, script) = (cfs.clone(), script.clone());
            thread::spawn(move || {
                let one_by_one: Vec<Response> =
                    script.iter().map(|r| cfs.handle(r.clone())).collect();
                (one_by_one, cfs.handle_batch(script))
            })
            .join()
            .unwrap()
        };
        let expected: Vec<Response> = script.iter().map(|r| twin.handle(r.clone())).collect();
        assert_eq!(served.0, expected);
        assert_eq!(served.1, twin.handle_batch(script));
        match &served.1[1] {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::TamperDetected),
            other => panic!("tamper verdict lost after the panic: {other:?}"),
        }
    }
}
