//! EXP-SERVED — the served path on the simulated device clock.
//!
//! The device has one sled, so the only concurrency a SERO daemon has is
//! queue depth: the reactor hands every request readable in one sweep to
//! one locked [`ConcurrentFs::handle_batch`] window, and the window's runs
//! of reads merge into admission sweeps ([`sero_core::admission`]). This
//! experiment measures that one path. Each phase runs once, on its own
//! population, and every compared value derives from the simulated
//! device clock or fixed payload sizes, so it reproduces exactly on any
//! host:
//!
//! * **Ready-set sweep.** One shuffled read script replays at ready-set
//!   sizes 1/2/4/8/16. Each window is encoded to wire frames, fed through
//!   a [`FrameAssembler`] in deterministically varied chunks (the
//!   reactor's receive path), decoded, and dispatched as one batch.
//!   Ready set 1 *is* the one-at-a-time schedule. `throughput_x8` (device
//!   time at 1 over device time at 8) is asserted **≥ 2.5×**, and every
//!   size must answer byte-identically.
//! * **Window formation.** `n` clients each write one `Read` frame to a
//!   bound daemon before its reactor starts, so the first sweep accepts
//!   and reads all `n`. Exactly one admission batch of `n` must run, and
//!   its device time and responses must equal in-process `handle_batch`
//!   of the same requests on a twin — asserted for n = 1/2/4/8/16.
//! * **Scrub interleave.** A budgeted scrub pass ticks between read
//!   windows at depth 8, with one heated line tampered beforehand; the
//!   same sequence replays serially. Both runs must find the planted
//!   evidence and end with byte-identical responses, verdicts and line
//!   registries.
//! * **Wire command replay.** A fixed command script (creates, a
//!   read/write mix, heating, verification, a budgeted scrub ticked to
//!   completion) travels the full encode → decode → `SeroFs::handle` →
//!   encode round trip: wire bytes, framing overhead, device time.
//! * **Framed tamper drill.** A raw rewrite of a heated block must come
//!   back from a framed `verify` as `TAMPER-DETECTED`.
//! * **Reactor ≡ in-process.** One command script, with a raw-write
//!   tamper and its verify, answers byte-for-byte the same over a real
//!   socket against the reactor as in-process through `SeroFs::handle`.
//!
//! Emits `BENCH_served.json` (schema `sero-bench/v1`, compared
//! **blocking** in CI). Host wall time belongs to the `e2e` benchmark,
//! so the document has no `"host"` block, and `SERO_BENCH_FAST=1` changes
//! nothing but the `fast_mode` flag.

use sero_bench::json::Json;
use sero_bench::{bench_out_path, device_clock_ns, fast_mode, row};
use sero_core::admission::AdmissionStats;
use sero_core::device::{LineRecord, SeroDevice};
use sero_fs::concurrent::ConcurrentFs;
use sero_fs::fs::{FsConfig, SeroFs};
use sero_proto::frame::{
    decode_frame, encode_request, encode_response, read_frame, write_frame, FrameAssembler,
    FrameKind,
};
use sero_proto::{ErrorCode, Request, Response, WireClass, WireSchedState, WireSliceOutcome};
use sero_server::{SeroServer, ServerConfig};
use std::net::TcpStream;
use std::time::Duration;

/// Small hot files: one data block each, so queue depth is measured
/// against head movement rather than payload streaming.
const HOT_FILES: usize = 384;
const HOT_BYTES: usize = 400;

/// Archival files beside the hot set. The framed drill and the identity
/// script use four; the scrub phase heats sixteen.
const ARCHIVE_FILES: usize = 4;
const SCRUB_ARCHIVE_FILES: usize = 16;
const ARCHIVE_BYTES: usize = 1100;

const DEVICE_BLOCKS: u64 = 8192;

/// Reads in the sweep script (divisible by every ready-set size).
const SWEEP_OPS: usize = 192;

/// Ready-set sizes, also the window depths the formation check runs.
const READY_SETS: [usize; 5] = [1, 2, 4, 8, 16];

/// Device-time budget per scrub slice in the interleaved phase.
const SCRUB_BUDGET_NS: u64 = 300_000;

/// The wire command replay's population.
const REPLAY_BLOCKS: u64 = 4096;
const REPLAY_ARCHIVAL_FILES: usize = 24;
const REPLAY_ARCHIVAL_BYTES: usize = 1200;
const REPLAY_HOT_FILES: usize = 8;
const REPLAY_HOT_BYTES: usize = 600;
/// Mixed read/overwrite commands between population and freezing.
const REPLAY_MIXED_OPS: usize = 60;
/// Budgeted scrub grant: 0.2 ms of device time per 1 ms quantum.
const REPLAY_SCRUB_BUDGET_NS: u64 = 200_000;
const REPLAY_SCRUB_QUANTUM_NS: u64 = 1_000_000;

/// Deterministic shuffle source.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn hot_name(i: usize) -> String {
    format!("hot-{i:03}")
}

fn archive_name(i: usize) -> String {
    format!("arch-{i:02}")
}

/// A fresh file system holding the hot set plus `archive_files` archival
/// files.
fn build_fs(archive_files: usize) -> ConcurrentFs {
    let fs = SeroFs::format(SeroDevice::with_blocks(DEVICE_BLOCKS), FsConfig::default())
        .expect("format succeeds");
    let cfs = ConcurrentFs::new(fs);
    for i in 0..HOT_FILES {
        let resp = cfs.handle(Request::Create {
            name: hot_name(i),
            data: vec![i as u8 + 1; HOT_BYTES],
            class: WireClass::Normal,
        });
        assert!(matches!(resp, Response::Created { .. }), "{resp:?}");
    }
    for i in 0..archive_files {
        let resp = cfs.handle(Request::Create {
            name: archive_name(i),
            data: vec![0x40 | i as u8; ARCHIVE_BYTES],
            class: WireClass::Archival,
        });
        assert!(matches!(resp, Response::Created { .. }), "{resp:?}");
    }
    cfs
}

/// [`build_fs`] with the sled parked at track 0, so every run starts from
/// the same resting position instead of the log head population left it
/// at.
fn parked_fs(archive_files: usize) -> ConcurrentFs {
    let cfs = build_fs(archive_files);
    cfs.with_fs(|fs| fs.device_mut().probe_mut().park_at(0));
    cfs
}

/// The shuffled read script every phase draws from.
fn read_script(ops: usize) -> Vec<Request> {
    let mut lcg = Lcg(0x5EC0_2008);
    (0..ops)
        .map(|_| Request::Read {
            name: hot_name((lcg.next() % HOT_FILES as u64) as usize),
        })
        .collect()
}

fn device_ns(cfs: &ConcurrentFs) -> u128 {
    cfs.with_fs(|fs| device_clock_ns(fs))
}

/// One ready-set run's results.
struct ReadySet {
    device_ns: u128,
    responses: Vec<Response>,
    frames: u64,
    chunks: u64,
    admission: AdmissionStats,
}

/// Replays `script` at one ready-set size through the reactor's receive
/// path: each window's frames are concatenated (the bytes `depth`
/// readable sockets hold), fed to the assembler in deterministically
/// varied chunk sizes, decoded, and dispatched as one batch window.
fn run_ready_set(depth: usize, script: &[Request]) -> ReadySet {
    let cfs = parked_fs(ARCHIVE_FILES);
    let start = device_ns(&cfs);
    let mut asm = FrameAssembler::new();
    let mut lcg = Lcg(0xC41B_EE75 ^ depth as u64);
    let mut responses = Vec::with_capacity(script.len());
    let (mut frames, mut chunks) = (0u64, 0u64);
    for window in script.chunks(depth) {
        let mut wire = Vec::new();
        for req in window {
            wire.extend_from_slice(&encode_request(req).expect("bench request fits a frame"));
        }
        let mut batch = Vec::with_capacity(window.len());
        let mut at = 0;
        while at < wire.len() {
            let size = (1 + (lcg.next() as usize % 96)).min(wire.len() - at);
            asm.push(&wire[at..at + size]);
            at += size;
            chunks += 1;
            while let Some((kind, payload)) = asm.next_frame().expect("own frames decode") {
                assert_eq!(kind, FrameKind::Request);
                batch.push(Request::decode(&payload).expect("own payload decodes"));
                frames += 1;
            }
        }
        assert_eq!(batch.len(), window.len(), "reassembly lost a frame");
        responses.extend(cfs.handle_batch(batch));
    }
    ReadySet {
        device_ns: device_ns(&cfs) - start,
        responses,
        frames,
        chunks,
        admission: cfs.admission_stats(),
    }
}

/// Serves the first `n` script reads from `n` pipelined clients and
/// checks they formed one depth-`n` admission window: every client
/// writes its frame before the reactor starts, so the first sweep
/// accepts and reads all of them. The window's device time and responses
/// must equal in-process `handle_batch` of the same requests on a twin.
fn check_window(n: usize, script: &[Request]) {
    let requests = &script[..n];
    let cfs = parked_fs(ARCHIVE_FILES);
    let server =
        SeroServer::bind_shared("127.0.0.1:0", cfs.clone(), ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("bound address");
    let mut clients: Vec<TcpStream> = requests
        .iter()
        .map(|req| {
            let mut conn = TcpStream::connect(addr).expect("connect");
            conn.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("deadline");
            write_frame(&mut conn, FrameKind::Request, &req.encode()).expect("send");
            conn
        })
        .collect();
    let (stats0, start) = (cfs.admission_stats(), device_ns(&cfs));
    let handle = server.spawn().expect("spawn");
    let served: Vec<Response> = clients
        .iter_mut()
        .map(|conn| {
            let (_, payload) = read_frame(conn).expect("recv").expect("response");
            Response::decode(&payload).expect("response decodes")
        })
        .collect();
    let (stats, elapsed) = (cfs.admission_stats(), device_ns(&cfs) - start);
    drop(clients);
    handle.shutdown();
    assert_eq!(
        (
            stats.batches - stats0.batches,
            stats.submitted - stats0.submitted
        ),
        (1, n as u64),
        "{n} pipelined clients must form exactly one depth-{n} admission window"
    );

    let twin = parked_fs(ARCHIVE_FILES);
    let twin_start = device_ns(&twin);
    let expected = twin.handle_batch(requests.to_vec());
    assert_eq!(served, expected, "window of {n} changed a response");
    assert_eq!(
        elapsed,
        device_ns(&twin) - twin_start,
        "window of {n} must cost what in-process handle_batch costs"
    );
}

/// One scrub-interleave run's results.
struct ScrubRun {
    foreground: Vec<Response>,
    verdicts: Vec<Response>,
    registry: Vec<LineRecord>,
    ticks: u64,
    device_ns: u128,
}

/// One scrub-interleaved replay at the given depth: heat the archive,
/// tamper one line raw, start a budgeted pass, then alternate read
/// windows with scrub ticks until the pass completes.
fn run_scrub_phase(depth: usize, script: &[Request]) -> ScrubRun {
    let cfs = build_fs(SCRUB_ARCHIVE_FILES);
    let mut lines = Vec::new();
    for i in 0..SCRUB_ARCHIVE_FILES {
        match cfs.handle(Request::Heat {
            name: archive_name(i),
            metadata: b"exp-served".to_vec(),
            timestamp: 1_199_145_600 + i as u64,
        }) {
            Response::Heated { line } => lines.push(line.to_line().expect("wire line")),
            other => panic!("heat refused: {other:?}"),
        }
    }
    // The §5 insider rewrites one protected block through the raw probe.
    cfs.with_fs(|fs| {
        fs.device_mut()
            .probe_mut()
            .mws(lines[SCRUB_ARCHIVE_FILES / 2].start() + 1, &[0xEE; 512])
            .expect("raw write");
        fs.device_mut().probe_mut().park_at(0);
    });
    let start = device_ns(&cfs);
    match cfs.handle(Request::ScrubStart {
        budget_ns: SCRUB_BUDGET_NS,
        quantum_ns: 0,
        incremental: false,
    }) {
        Response::ScrubStarted { pending, .. } => {
            assert_eq!(pending as usize, SCRUB_ARCHIVE_FILES)
        }
        other => panic!("scrub start refused: {other:?}"),
    }

    let mut foreground = Vec::new();
    let mut ticks = 0u64;
    for window in script.chunks(8).cycle() {
        for chunk in window.chunks(depth) {
            foreground.extend(cfs.handle_batch(chunk.to_vec()));
        }
        ticks += 1;
        assert!(ticks < 10_000, "budgeted pass failed to converge");
        match cfs.handle(Request::ScrubTick) {
            Response::ScrubTicked { status, .. } if status.state == WireSchedState::Complete => {
                assert_eq!(status.verified as usize, SCRUB_ARCHIVE_FILES);
                assert_eq!(status.tampered, 1, "the planted evidence must be found");
                break;
            }
            Response::ScrubTicked { .. } => {}
            other => panic!("scrub tick refused: {other:?}"),
        }
    }
    let elapsed = device_ns(&cfs) - start;

    let verdicts = (0..SCRUB_ARCHIVE_FILES)
        .map(|i| {
            cfs.handle(Request::Verify {
                name: archive_name(i),
            })
        })
        .collect();
    let mut registry: Vec<LineRecord> =
        cfs.with_fs(|fs| fs.device().heated_lines().cloned().collect());
    registry.sort_by_key(|r| r.line.start());
    ScrubRun {
        foreground,
        verdicts,
        registry,
        ticks,
        device_ns: elapsed,
    }
}

/// Tracks one command's trip through the full wire codec.
struct Replay {
    fs: SeroFs,
    commands: u64,
    request_bytes: u64,
    response_bytes: u64,
    errors: u64,
    scrub_ticks: u64,
    scrub_throttled: u64,
}

impl Replay {
    /// Encodes `req` to a frame, decodes it back (the server's receive
    /// path), handles it, and frames the response (the send path).
    fn call(&mut self, req: &Request) -> Response {
        let framed = encode_request(req).expect("bench request fits a frame");
        let (_, payload, _) = decode_frame(&framed).expect("own frame decodes");
        let decoded = Request::decode(payload).expect("own payload decodes");
        let response = self.fs.handle(decoded);
        let response_frame = encode_response(&response).expect("bench response fits a frame");
        self.commands += 1;
        self.request_bytes += framed.len() as u64;
        self.response_bytes += response_frame.len() as u64;
        if matches!(response, Response::Error(_)) {
            self.errors += 1;
        }
        response
    }
}

/// The deterministic wire command script.
fn run_replay() -> Replay {
    let fs = SeroFs::format(SeroDevice::with_blocks(REPLAY_BLOCKS), FsConfig::default())
        .expect("format succeeds");
    let mut replay = Replay {
        fs,
        commands: 0,
        request_bytes: 0,
        response_bytes: 0,
        errors: 0,
        scrub_ticks: 0,
        scrub_throttled: 0,
    };
    let archive = |i: usize| format!("archive-{i:04}");

    // Populate: archival payloads that will freeze, hot files that churn.
    for i in 0..REPLAY_ARCHIVAL_FILES {
        replay.call(&Request::Create {
            name: archive(i),
            data: vec![i as u8 + 1; REPLAY_ARCHIVAL_BYTES],
            class: WireClass::Archival,
        });
    }
    for i in 0..REPLAY_HOT_FILES {
        replay.call(&Request::Create {
            name: format!("hot-{i:02}"),
            data: vec![0xA0 | i as u8; REPLAY_HOT_BYTES],
            class: WireClass::Normal,
        });
    }

    // Mixed traffic: alternating archival reads and hot overwrites.
    for i in 0..REPLAY_MIXED_OPS {
        if i % 2 == 0 {
            replay.call(&Request::Read {
                name: archive(i % REPLAY_ARCHIVAL_FILES),
            });
        } else {
            replay.call(&Request::Write {
                name: format!("hot-{:02}", i % REPLAY_HOT_FILES),
                data: vec![i as u8; REPLAY_HOT_BYTES],
                class: WireClass::Normal,
            });
        }
    }

    // Freeze history, then audit it.
    for i in 0..REPLAY_ARCHIVAL_FILES {
        replay.call(&Request::Heat {
            name: archive(i),
            metadata: b"exp-served freeze".to_vec(),
            timestamp: 1_199_145_600 + i as u64,
        });
    }
    for i in 0..REPLAY_ARCHIVAL_FILES {
        let resp = replay.call(&Request::Verify { name: archive(i) });
        assert!(
            matches!(resp, Response::Verified(_)),
            "clean replay must verify intact: {resp:?}"
        );
    }
    replay.call(&Request::list_all());
    replay.call(&Request::FleetStatus);

    // A budgeted scrub pass driven entirely over the command path, the
    // way a remote operator ticks a daemon.
    replay.call(&Request::ScrubStart {
        budget_ns: REPLAY_SCRUB_BUDGET_NS,
        quantum_ns: REPLAY_SCRUB_QUANTUM_NS,
        incremental: true,
    });
    loop {
        replay.scrub_ticks += 1;
        assert!(
            replay.scrub_ticks < 10_000,
            "wire-driven scrub failed to converge"
        );
        match replay.call(&Request::ScrubTick) {
            Response::ScrubTicked { outcome, status } => {
                if matches!(outcome, WireSliceOutcome::Throttled { .. }) {
                    replay.scrub_throttled += 1;
                }
                if status.state == WireSchedState::Complete {
                    assert_eq!(status.verified as usize, REPLAY_ARCHIVAL_FILES);
                    assert_eq!(status.tampered, 0);
                    break;
                }
            }
            other => panic!("scrub tick refused: {other:?}"),
        }
    }
    assert_eq!(replay.errors, 0, "the script is error-free by design");
    replay
}

/// The framed tamper drill: heat an archive file, rewrite one protected
/// block through the raw probe, and drive `verify` through the frame
/// codec. Returns 1 if (and only if) the evidence surfaced.
fn run_framed_tamper() -> u64 {
    let cfs = build_fs(ARCHIVE_FILES);
    let line = match cfs.handle(Request::Heat {
        name: archive_name(0),
        metadata: b"exp-served".to_vec(),
        timestamp: 1_199_145_600,
    }) {
        Response::Heated { line } => line.to_line().expect("wire line"),
        other => panic!("heat refused: {other:?}"),
    };
    cfs.with_fs(|fs| {
        fs.device_mut()
            .probe_mut()
            .mws(line.start() + 1, &[0xEE; 512])
            .expect("raw write");
    });
    let framed = encode_request(&Request::Verify {
        name: archive_name(0),
    })
    .expect("bench request fits a frame");
    let mut asm = FrameAssembler::new();
    asm.push(&framed);
    let (_, payload) = asm
        .next_frame()
        .expect("own frame decodes")
        .expect("complete frame");
    match cfs.handle(Request::decode(&payload).expect("own payload")) {
        Response::Error(e) if e.code == ErrorCode::TamperDetected => 1,
        other => panic!("tampered line verified clean: {other:?}"),
    }
}

/// Runs the identity script over a real socket against a reactor daemon.
/// Returns every response payload, byte-for-byte.
fn run_wire_script_served() -> Vec<Vec<u8>> {
    let server = SeroServer::bind_shared(
        "127.0.0.1:0",
        build_fs(ARCHIVE_FILES),
        ServerConfig {
            allow_raw: true,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let handle = server.spawn().expect("spawn");
    let mut conn = TcpStream::connect(handle.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("deadline");
    let outs = wire_script(|req| {
        write_frame(&mut conn, FrameKind::Request, &req.encode()).expect("send");
        let (_, payload) = read_frame(&mut conn).expect("recv").expect("response");
        payload
    });
    drop(conn);
    handle.shutdown();
    outs
}

/// Runs the identity script in-process through [`SeroFs::handle`] on the
/// same population, encoding each response as the daemon would send it.
fn run_wire_script_in_process() -> Vec<Vec<u8>> {
    build_fs(ARCHIVE_FILES).with_fs(|fs| wire_script(|req| fs.handle(req.clone()).encode()))
}

/// The identity script — reads, a heat, a raw tamper, its verify, and
/// status queries — issued through `call`, which returns each encoded
/// response payload.
fn wire_script(mut call: impl FnMut(&Request) -> Vec<u8>) -> Vec<Vec<u8>> {
    let mut outs = Vec::new();
    for i in 0..ARCHIVE_FILES {
        outs.push(call(&Request::Read {
            name: archive_name(i),
        }));
    }
    let heat_payload = call(&Request::Heat {
        name: archive_name(1),
        metadata: b"wire-script".to_vec(),
        timestamp: 1_199_145_601,
    });
    let line = match Response::decode(&heat_payload).expect("heat response") {
        Response::Heated { line } => line.to_line().expect("wire line"),
        other => panic!("heat refused: {other:?}"),
    };
    outs.push(heat_payload);
    outs.push(call(&Request::RawWrite {
        pba: line.start() + 1,
        data: vec![0xEE; 512],
    }));
    let verify_payload = call(&Request::Verify {
        name: archive_name(1),
    });
    match Response::decode(&verify_payload).expect("verify response") {
        Response::Error(e) if e.code == ErrorCode::TamperDetected => {}
        other => panic!("tamper evidence missing over the wire: {other:?}"),
    }
    outs.push(verify_payload);
    outs.push(call(&Request::Verify {
        name: archive_name(2),
    }));
    outs.push(call(&Request::Stat {
        name: archive_name(1),
    }));
    outs.push(call(&Request::list_all()));
    outs.push(call(&Request::FleetStatus));
    outs
}

fn ms(ns: u128) -> f64 {
    ns as f64 / 1e6
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fast = fast_mode();
    println!(
        "EXP-SERVED: {HOT_FILES} hot files, {SWEEP_OPS}-op script, ready sets {READY_SETS:?}{}\n",
        if fast { " (fast mode)" } else { "" },
    );

    // --- ready-set sweep --------------------------------------------------
    let script = read_script(SWEEP_OPS);
    let widths = [10, 12, 12, 8, 8, 8, 8];
    println!(
        "{}",
        row(
            &[
                "ready-set",
                "device ms",
                "ops/dev-s",
                "frames",
                "chunks",
                "merged",
                "deduped"
            ],
            &widths
        )
    );
    let runs: Vec<ReadySet> = READY_SETS
        .iter()
        .map(|&depth| run_ready_set(depth, &script))
        .collect();
    for (depth, run) in READY_SETS.iter().zip(&runs) {
        assert_eq!(
            runs[0].responses, run.responses,
            "ready-set {depth} changed a response — merging must be invisible"
        );
        println!(
            "{}",
            row(
                &[
                    &format!("{depth}"),
                    &format!("{:.2}", ms(run.device_ns)),
                    &format!("{:.0}", SWEEP_OPS as f64 / (run.device_ns as f64 / 1e9)),
                    &format!("{}", run.frames),
                    &format!("{}", run.chunks),
                    &format!("{}", run.admission.reads_merged),
                    &format!("{}", run.admission.blocks_deduped),
                ],
                &widths
            )
        );
    }
    let at = |d: usize| &runs[READY_SETS.iter().position(|&x| x == d).expect("swept size")];
    let ratio = |d: usize| runs[0].device_ns as f64 / at(d).device_ns as f64;
    let (x2, x4, x8, x16) = (ratio(2), ratio(4), ratio(8), ratio(16));
    let ready8_ops_per_device_s = SWEEP_OPS as f64 / (at(8).device_ns as f64 / 1e9);
    let frames: u64 = runs.iter().map(|r| r.frames).sum();
    let chunks: u64 = runs.iter().map(|r| r.chunks).sum();
    println!("\n  ready-set 8: {x8:.2}x the one-at-a-time schedule (bar: >= 2.5x)");
    assert!(
        x8 >= 2.5,
        "admission merging must clear the 2.5x bar, got {x8:.2}x"
    );

    // --- window formation -------------------------------------------------
    for &n in &READY_SETS {
        check_window(n, &script);
    }
    println!(
        "  window formation: n pipelined clients formed one depth-n admission window \
         for n in {READY_SETS:?}, device time equal to in-process handle_batch"
    );

    // --- scrub interleave -------------------------------------------------
    let deep = run_scrub_phase(8, &script);
    let serial = run_scrub_phase(1, &script);
    assert_eq!(
        deep.foreground, serial.foreground,
        "foreground responses must match the serialized schedule"
    );
    assert_eq!(
        deep.verdicts, serial.verdicts,
        "verify verdicts must match the serialized schedule"
    );
    assert_eq!(
        deep.registry, serial.registry,
        "the line registry — the tamper evidence — must be byte-identical"
    );
    let scrub_tampered = deep
        .verdicts
        .iter()
        .filter(|v| matches!(v, Response::Error(e) if e.code == ErrorCode::TamperDetected))
        .count();
    assert_eq!(scrub_tampered, 1, "exactly the planted line is tampered");
    println!(
        "  scrub interleaved at depth 8: {} ticks, {:.2} ms device (serial: {} ticks, \
         {:.2} ms); evidence identical, 1 tampered line found",
        deep.ticks,
        ms(deep.device_ns),
        serial.ticks,
        ms(serial.device_ns),
    );

    // --- wire command replay ----------------------------------------------
    let replay = run_replay();
    let replay_ns = device_clock_ns(&replay.fs);
    let wire_bytes = replay.request_bytes + replay.response_bytes;
    let bytes_per_command = wire_bytes as f64 / replay.commands as f64;
    // 14 framing bytes each way per command.
    let overhead_ppm = (replay.commands * 2 * 14) as f64 / wire_bytes as f64 * 1e6;
    let commands_per_device_s = replay.commands as f64 / (replay_ns as f64 / 1e9);
    println!(
        "  replay: {} commands, {:.1} KiB on the wire ({bytes_per_command:.1} B/command, \
         {overhead_ppm:.0} ppm framing), {:.2} ms device; scrub {} ticks ({} throttled)",
        replay.commands,
        wire_bytes as f64 / 1024.0,
        ms(replay_ns),
        replay.scrub_ticks,
        replay.scrub_throttled,
    );

    // --- framed tamper drill ----------------------------------------------
    let framed_tampered = run_framed_tamper();
    println!("  framed tamper drill: evidence found ({framed_tampered} line)");

    // --- reactor ≡ in-process ---------------------------------------------
    let in_process = run_wire_script_in_process();
    let served = run_wire_script_served();
    assert_eq!(
        in_process, served,
        "reactor responses must be byte-identical to in-process SeroFs::handle"
    );
    println!(
        "  identity script: {} commands byte-identical between the reactor and \
         in-process SeroFs::handle (tamper evidence included)",
        served.len()
    );

    let doc = Json::obj()
        .set("schema", "sero-bench/v1")
        .set("bench", "served")
        .set("fast_mode", fast)
        .set(
            "device",
            Json::obj()
                .set("blocks", DEVICE_BLOCKS)
                .set("hot_files", HOT_FILES)
                .set("hot_bytes", HOT_BYTES)
                .set("archive_files", ARCHIVE_FILES)
                .set("scrub_archive_files", SCRUB_ARCHIVE_FILES)
                .set("archive_bytes", ARCHIVE_BYTES)
                .set("sweep_ops", SWEEP_OPS)
                .set("scrub_budget_ns", SCRUB_BUDGET_NS)
                .set("replay_blocks", REPLAY_BLOCKS)
                .set("replay_archival_files", REPLAY_ARCHIVAL_FILES)
                .set("replay_archival_bytes", REPLAY_ARCHIVAL_BYTES)
                .set("replay_hot_files", REPLAY_HOT_FILES)
                .set("replay_mixed_ops", REPLAY_MIXED_OPS)
                .set("replay_scrub_budget_ns", REPLAY_SCRUB_BUDGET_NS)
                .set("replay_scrub_quantum_ns", REPLAY_SCRUB_QUANTUM_NS),
        )
        .set(
            "metrics",
            Json::obj()
                .set("ready_1_device_ms", ms(at(1).device_ns))
                .set("ready_2_device_ms", ms(at(2).device_ns))
                .set("ready_4_device_ms", ms(at(4).device_ns))
                .set("ready_8_device_ms", ms(at(8).device_ns))
                .set("ready_16_device_ms", ms(at(16).device_ns))
                .set("throughput_x2", x2)
                .set("throughput_x4", x4)
                .set("throughput_x8", x8)
                .set("throughput_x16", x16)
                .set("ready_8_ops_per_device_s", ready8_ops_per_device_s)
                .set("reads_merged_at_8", at(8).admission.reads_merged)
                .set("blocks_deduped_at_8", at(8).admission.blocks_deduped)
                .set("frames_reassembled", frames)
                .set("reassembly_chunks", chunks)
                .set("windows_formed", READY_SETS.len())
                .set("scrub_depth8_device_ms", ms(deep.device_ns))
                .set("scrub_serial_device_ms", ms(serial.device_ns))
                .set("scrub_ticks_depth8", deep.ticks)
                .set("scrub_ticks_serial", serial.ticks)
                .set("scrub_lines_verified", SCRUB_ARCHIVE_FILES)
                .set("scrub_tampered", 1u64)
                .set("scrub_evidence_identical", 1u64)
                .set("replay_commands", replay.commands)
                .set("replay_wire_bytes", wire_bytes)
                .set("replay_request_bytes", replay.request_bytes)
                .set("replay_response_bytes", replay.response_bytes)
                .set("replay_bytes_per_command", bytes_per_command)
                .set("replay_framing_overhead_ppm", overhead_ppm)
                .set("replay_device_ms", ms(replay_ns))
                .set("replay_commands_per_device_s", commands_per_device_s)
                .set("replay_scrub_ticks", replay.scrub_ticks)
                .set("replay_scrub_throttled", replay.scrub_throttled)
                .set("replay_lines_verified", REPLAY_ARCHIVAL_FILES)
                .set("replay_errors", replay.errors)
                .set("framed_tampered", framed_tampered)
                .set("wire_script_commands", served.len())
                .set("responses_identical", 1u64),
        );
    let path = bench_out_path("served");
    std::fs::write(&path, doc.render())?;
    println!("\n  wrote {}", path.display());
    Ok(())
}
