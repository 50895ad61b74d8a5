//! Interleaving properties of the concurrent foreground core (PR 7).
//!
//! The admission scheduler may merge queued reads into elevator sweeps
//! and a budgeted scrub pass may tick between any two foreground
//! batches, but none of that is allowed to show: however the same
//! request script is chunked into `handle_batch` windows, every response
//! and the final line registry — the tamper evidence — must be
//! byte-identical to the serialized (depth-1) schedule, and to a plain
//! `SeroFs` handling the script one request at a time.
//!
//! The window mutex is the only thing that keeps a scrub slice from
//! reading a line mid-write. A window of one through `ConcurrentFs` has
//! no scrub path of its own: its responses, `ScrubTicked` slices
//! included, equal a bare `SeroFs`'s exactly. The stress test below
//! checks the same mutex under real thread contention.
//!
//! CI runs these once under `--test-threads=1` (determinism smoke) and
//! once normally with the rest of the workspace.

use proptest::prelude::*;
use sero::core::device::{LineRecord, SeroDevice};
use sero::core::line::Line;
use sero::fs::concurrent::ConcurrentFs;
use sero::fs::fs::{FsConfig, SeroFs};
use sero::proto::{ErrorCode, Request, Response, WireClass, WireSchedState};

/// Hot single-block files the scripts read and rewrite.
const HOT: usize = 20;
/// Archival files heated into lines for the scrub side.
const ARCH: usize = 6;
const DEVICE_BLOCKS: u64 = 512;

fn hot_name(i: usize) -> String {
    format!("conc-{i:02}")
}

fn arch_name(i: usize) -> String {
    format!("seal-{i}")
}

/// A deterministic population: `HOT` normal files plus `ARCH` archival
/// files, all heated, with `victims` tampered through the raw probe.
/// Identical calls build byte-identical file systems, which is what
/// lets the twins below be compared record for record.
fn build_fs(victims: &[usize]) -> (SeroFs, Vec<Line>) {
    let mut fs = SeroFs::format(SeroDevice::with_blocks(DEVICE_BLOCKS), FsConfig::default())
        .expect("format succeeds");
    for i in 0..HOT {
        let resp = fs.handle(Request::Create {
            name: hot_name(i),
            data: vec![i as u8 + 1; 300],
            class: WireClass::Normal,
        });
        assert!(matches!(resp, Response::Created { .. }), "{resp:?}");
    }
    let mut lines = Vec::new();
    for i in 0..ARCH {
        let resp = fs.handle(Request::Create {
            name: arch_name(i),
            data: vec![0x60 | i as u8; 1100],
            class: WireClass::Archival,
        });
        assert!(matches!(resp, Response::Created { .. }), "{resp:?}");
        match fs.handle(Request::Heat {
            name: arch_name(i),
            metadata: b"concurrency-props".to_vec(),
            timestamp: 1_199_145_600 + i as u64,
        }) {
            Response::Heated { line } => lines.push(line.to_line().expect("wire line")),
            other => panic!("heat refused: {other:?}"),
        }
    }
    for &v in victims {
        fs.device_mut()
            .probe_mut()
            .mws(lines[v % ARCH].start() + 1, &[0xEE; 512])
            .expect("raw tamper");
    }
    (fs, lines)
}

/// Builds the request script from the proptest-drawn opcodes. Victims
/// are only verified *after* the pass completes (see `final_verdicts`),
/// so mid-script verdicts cannot depend on how far the pass happened to
/// get — scrub pacing is schedule-dependent, the evidence is not.
fn script_requests(script: &[(u8, usize)]) -> Vec<Request> {
    script
        .iter()
        .map(|&(kind, idx)| match kind {
            0..=2 => Request::Read {
                name: hot_name(idx % HOT),
            },
            3 => Request::Verify {
                name: arch_name(idx % (ARCH / 2)),
            },
            4 => Request::Write {
                name: hot_name(idx % HOT),
                data: vec![kind ^ idx as u8; 200 + idx % 90],
                class: WireClass::Normal,
            },
            _ => Request::ScrubTick,
        })
        .collect()
}

fn start_scrub(resp: Response) {
    match resp {
        Response::ScrubStarted { pending, .. } => assert_eq!(pending as usize, ARCH),
        other => panic!("scrub start refused: {other:?}"),
    }
}

/// Ticks until the pass completes; returns (verified, tampered).
fn drain_scrub(mut tick: impl FnMut() -> Response) -> (u64, u64) {
    for _ in 0..20_000 {
        match tick() {
            Response::ScrubTicked { status, .. } => {
                if status.state == WireSchedState::Complete {
                    return (status.verified, status.tampered);
                }
            }
            other => panic!("scrub tick refused: {other:?}"),
        }
    }
    panic!("budgeted pass failed to converge");
}

fn registry(fs: &SeroFs) -> Vec<LineRecord> {
    let mut records: Vec<LineRecord> = fs.device().heated_lines().cloned().collect();
    records.sort_by_key(|r| r.line.start());
    records
}

fn dedupe(raw: &[usize]) -> Vec<usize> {
    let set: std::collections::BTreeSet<usize> = raw.iter().map(|v| v % ARCH).collect();
    set.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any chunking of the same script — reads merged into sweeps,
    /// writes and scrub ticks interleaved wherever the draws put them —
    /// answers byte-identically to the serialized schedule, and both
    /// leave the registry byte-identical to a bare `SeroFs` replay.
    #[test]
    fn interleavings_match_the_serialized_schedule(
        script in proptest::collection::vec((0u8..6, 0usize..HOT), 12..48),
        chunks in proptest::collection::vec(1usize..9, 4..16),
        victims in proptest::collection::vec(0usize..ARCH, 0..3),
        budget_us in 120u64..600,
    ) {
        let requests = script_requests(&script);
        let start = Request::ScrubStart {
            budget_ns: budget_us * 1_000,
            quantum_ns: 0,
            incremental: false,
        };

        // Twin 1: the script arrives in proptest-drawn windows.
        let chunked = ConcurrentFs::new(build_fs(&victims).0);
        start_scrub(chunked.handle(start.clone()));
        let mut chunked_responses = Vec::new();
        let mut cursor = 0usize;
        for &size in chunks.iter().cycle() {
            if cursor >= requests.len() {
                break;
            }
            let window = requests[cursor..(cursor + size).min(requests.len())].to_vec();
            cursor += window.len();
            chunked_responses.extend(chunked.handle_batch(window));
        }
        let chunked_pass = drain_scrub(|| chunked.handle(Request::ScrubTick));

        // Twin 2: the serialized schedule — same requests, one per batch.
        let serial = ConcurrentFs::new(build_fs(&victims).0);
        start_scrub(serial.handle(start.clone()));
        let serial_responses: Vec<Response> =
            requests.iter().map(|r| serial.handle(r.clone())).collect();
        let serial_pass = drain_scrub(|| serial.handle(Request::ScrubTick));

        // Twin 3: no ConcurrentFs at all — a bare SeroFs replay.
        let (mut bare, _) = build_fs(&victims);
        start_scrub(bare.handle(start));
        let bare_responses: Vec<Response> =
            requests.iter().map(|r| bare.handle(r.clone())).collect();
        let bare_pass = drain_scrub(|| bare.handle(Request::ScrubTick));

        // A window of one runs the same code as a bare SeroFs, so the
        // serialized schedule answers exactly as the bare replay does,
        // ScrubTicked slices included.
        prop_assert_eq!(&serial_responses, &bare_responses);
        // Scrub pacing is schedule-dependent (merged sweeps park the
        // sled elsewhere), so chunked ScrubTicked slice responses may
        // differ; everything else must not.
        for (i, request) in requests.iter().enumerate() {
            if !matches!(request, Request::ScrubTick) {
                prop_assert_eq!(
                    &chunked_responses[i], &serial_responses[i],
                    "response {} to {:?} changed under chunking", i, request
                );
            }
        }
        let expected_tampered = dedupe(&victims).len() as u64;
        prop_assert_eq!(chunked_pass, (ARCH as u64, expected_tampered));
        prop_assert_eq!(serial_pass, (ARCH as u64, expected_tampered));
        prop_assert_eq!(bare_pass, (ARCH as u64, expected_tampered));

        // Post-completion verdicts and the registry itself: identical
        // across all three schedules, file by file, record by record.
        fn verdicts(mut handle: impl FnMut(Request) -> Response) -> Vec<Response> {
            (0..ARCH)
                .map(|i| handle(Request::Verify { name: arch_name(i) }))
                .collect()
        }
        let chunked_verdicts = verdicts(|r| chunked.handle(r));
        let serial_verdicts = verdicts(|r| serial.handle(r));
        let bare_verdicts = verdicts(|r| bare.handle(r));
        prop_assert_eq!(&chunked_verdicts, &serial_verdicts);
        prop_assert_eq!(&chunked_verdicts, &bare_verdicts);
        let tampered_verdicts = chunked_verdicts
            .iter()
            .filter(|v| matches!(v, Response::Error(e) if e.code == ErrorCode::TamperDetected))
            .count() as u64;
        prop_assert_eq!(tampered_verdicts, expected_tampered);

        let chunked_registry = chunked.with_fs(|fs| registry(fs));
        prop_assert_eq!(&chunked_registry, &serial.with_fs(|fs| registry(fs)));
        prop_assert_eq!(&chunked_registry, &registry(&bare));
    }
}

/// Real threads, real contention: readers and writers hammer one
/// `ConcurrentFs` while the main thread drives a budgeted pass over a
/// population with one planted tamper. Nothing may deadlock, every
/// response must be well-formed, and the evidence must surface.
#[test]
fn stress_threads_and_scrub_share_the_device() {
    let victim = 2usize;
    let (fs, _) = build_fs(&[victim]);
    let cfs = ConcurrentFs::new(fs);
    start_scrub(cfs.handle(Request::ScrubStart {
        budget_ns: 250_000,
        quantum_ns: 0,
        incremental: false,
    }));

    let workers: Vec<_> = (0..6)
        .map(|t| {
            let cfs = cfs.clone();
            std::thread::spawn(move || {
                for i in 0..40 {
                    let slot = (t * 7 + i * 3) % HOT;
                    if t % 3 == 0 {
                        let resp = cfs.handle(Request::Write {
                            name: hot_name(slot),
                            data: vec![(t * 40 + i) as u8; 180],
                            class: WireClass::Normal,
                        });
                        assert!(matches!(resp, Response::Written), "{resp:?}");
                    } else {
                        let resp = cfs.handle(Request::Read {
                            name: hot_name(slot),
                        });
                        assert!(matches!(resp, Response::Data { .. }), "{resp:?}");
                    }
                }
            })
        })
        .collect();

    let (verified, tampered) = drain_scrub(|| cfs.handle(Request::ScrubTick));
    for worker in workers {
        worker.join().expect("worker panicked");
    }
    assert_eq!((verified, tampered), (ARCH as u64, 1));

    for i in 0..ARCH {
        let resp = cfs.handle(Request::Verify { name: arch_name(i) });
        if i == victim {
            assert!(
                matches!(&resp, Response::Error(e) if e.code == ErrorCode::TamperDetected),
                "planted evidence missing: {resp:?}"
            );
        } else {
            assert!(matches!(resp, Response::Verified(_)), "{resp:?}");
        }
    }
}
