//! EXP-SERVER — the command path and the wire, measured.
//!
//! Every deployment drives [`sero_fs::fs::SeroFs::handle`] with a
//! [`sero_proto::Request`], and `sero-server` serves that door over TCP
//! frames. This experiment measures the command path and the wire codec:
//! a fixed command script — creates, a read/write mix, heating,
//! verification, and a budgeted scrub driven tick-by-tick — is encoded
//! to wire frames, decoded back, and handled, exactly the round trip a
//! served request takes minus the socket. Everything in the compared
//! `"metrics"` derives from the simulated device clock and fixed payload
//! sizes, so the numbers reproduce byte-for-byte on any host: wire bytes
//! per command, frame overhead, device milliseconds, scrub slice counts.
//! The replay's host wall time lands under `"host"`. Real sockets and
//! client swarms against the reactor are `exp_reactor`'s job.
//!
//! Emits `BENCH_server.json` (schema `sero-bench/v1`, compared
//! **blocking** in CI). The replay is identical with or without
//! `SERO_BENCH_FAST=1`.

use sero_bench::json::Json;
use sero_bench::{bench_out_path, device_clock_ns, fast_mode};
use sero_core::device::SeroDevice;
use sero_fs::fs::{FsConfig, SeroFs};
use sero_proto::frame::{decode_frame, encode_request, encode_response};
use sero_proto::{Request, Response, WireClass, WireSchedState};
use std::time::Instant;

/// Archival files frozen (and later verified) by the replay script.
const ARCHIVAL_FILES: usize = 24;
const ARCHIVAL_BYTES: usize = 1200;

/// Hot WMRM files rewritten by the mixed phase.
const HOT_FILES: usize = 8;
const HOT_BYTES: usize = 600;

/// Mixed read/overwrite commands between population and freezing.
const MIXED_OPS: usize = 60;

/// Budgeted scrub grant: 0.2 ms of device time per 1 ms quantum.
const SCRUB_BUDGET_NS: u64 = 200_000;
const SCRUB_QUANTUM_NS: u64 = 1_000_000;

/// Tracks one command's trip through the full wire codec.
struct Replay {
    fs: SeroFs,
    commands: u64,
    request_bytes: u64,
    response_bytes: u64,
    errors: u64,
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

/// The deterministic command script; returns (replay, scrub ticks,
/// throttled ticks).
fn run_replay() -> (Replay, u64, u64) {
    let fs = SeroFs::format(SeroDevice::with_blocks(4096), FsConfig::default())
        .expect("format succeeds");
    let mut replay = Replay {
        fs,
        commands: 0,
        request_bytes: 0,
        response_bytes: 0,
        errors: 0,
    };

    // Populate: archival payloads that will freeze, hot files that churn.
    for i in 0..ARCHIVAL_FILES {
        replay.call(&Request::Create {
            name: format!("archive-{i:04}"),
            data: vec![i as u8 + 1; ARCHIVAL_BYTES],
            class: WireClass::Archival,
        });
    }
    for i in 0..HOT_FILES {
        replay.call(&Request::Create {
            name: format!("hot-{i:02}"),
            data: vec![0xA0 | i as u8; HOT_BYTES],
            class: WireClass::Normal,
        });
    }

    // Mixed traffic: alternating archival reads and hot overwrites.
    for i in 0..MIXED_OPS {
        if i % 2 == 0 {
            replay.call(&Request::Read {
                name: format!("archive-{:04}", i % ARCHIVAL_FILES),
            });
        } else {
            replay.call(&Request::Write {
                name: format!("hot-{:02}", i % HOT_FILES),
                data: vec![i as u8; HOT_BYTES],
                class: WireClass::Normal,
            });
        }
    }

    // Freeze history, then audit it.
    for i in 0..ARCHIVAL_FILES {
        replay.call(&Request::Heat {
            name: format!("archive-{i:04}"),
            metadata: b"exp-server freeze".to_vec(),
            timestamp: 1_199_145_600 + i as u64,
        });
    }
    for i in 0..ARCHIVAL_FILES {
        let resp = replay.call(&Request::Verify {
            name: format!("archive-{i:04}"),
        });
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
        budget_ns: SCRUB_BUDGET_NS,
        quantum_ns: SCRUB_QUANTUM_NS,
        incremental: true,
    });
    let mut ticks = 0u64;
    let mut throttled = 0u64;
    loop {
        ticks += 1;
        assert!(ticks < 10_000, "wire-driven scrub failed to converge");
        match replay.call(&Request::ScrubTick) {
            Response::ScrubTicked { outcome, status } => {
                if matches!(outcome, sero_proto::WireSliceOutcome::Throttled { .. }) {
                    throttled += 1;
                }
                if status.state == WireSchedState::Complete {
                    assert_eq!(status.verified as usize, ARCHIVAL_FILES);
                    assert_eq!(status.tampered, 0);
                    break;
                }
            }
            other => panic!("scrub tick refused: {other:?}"),
        }
    }
    assert_eq!(replay.errors, 0, "the script is error-free by design");
    (replay, ticks, throttled)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fast = fast_mode();
    println!(
        "EXP-SERVER: replay {} archival + {} hot files{}\n",
        ARCHIVAL_FILES,
        HOT_FILES,
        if fast { " (fast mode)" } else { "" },
    );

    // --- deterministic wire replay ---------------------------------------
    let host_replay = Instant::now();
    let (replay, scrub_ticks, scrub_throttled) = run_replay();
    let replay_host_ms = host_replay.elapsed().as_secs_f64() * 1e3;
    let replay_device_ns = device_clock_ns(&replay.fs);
    let replay_device_ms = replay_device_ns as f64 / 1e6;
    let wire_bytes = replay.request_bytes + replay.response_bytes;
    let bytes_per_command = wire_bytes as f64 / replay.commands as f64;
    // 14 framing bytes each way per command.
    let overhead_ppm = (replay.commands * 2 * 14) as f64 / wire_bytes as f64 * 1e6;
    let commands_per_device_s = replay.commands as f64 / (replay_device_ns as f64 / 1e9);

    println!(
        "  replay: {} commands, {:.1} KiB on the wire ({:.1} B/command, {:.0} ppm framing), \
         {replay_device_ms:.2} ms device time",
        replay.commands,
        wire_bytes as f64 / 1024.0,
        bytes_per_command,
        overhead_ppm,
    );
    println!(
        "  scrub over the wire: {scrub_ticks} ticks ({scrub_throttled} throttled), \
         {ARCHIVAL_FILES} lines verified"
    );

    let doc = Json::obj()
        .set("schema", "sero-bench/v1")
        .set("bench", "server")
        .set("fast_mode", fast)
        .set(
            "device",
            Json::obj()
                .set("blocks", 4096u64)
                .set("archival_files", ARCHIVAL_FILES)
                .set("archival_bytes", ARCHIVAL_BYTES)
                .set("hot_files", HOT_FILES)
                .set("mixed_ops", MIXED_OPS)
                .set("scrub_budget_ns", SCRUB_BUDGET_NS)
                .set("scrub_quantum_ns", SCRUB_QUANTUM_NS),
        )
        .set(
            "metrics",
            Json::obj()
                .set("commands", replay.commands)
                .set("wire_bytes", wire_bytes)
                .set("request_bytes", replay.request_bytes)
                .set("response_bytes", replay.response_bytes)
                .set("bytes_per_command", bytes_per_command)
                .set("framing_overhead_ppm", overhead_ppm)
                .set("replay_device_ms", replay_device_ms)
                .set("commands_per_device_s", commands_per_device_s)
                .set("scrub_ticks", scrub_ticks)
                .set("scrub_throttled", scrub_throttled)
                .set("lines_verified", ARCHIVAL_FILES)
                .set("errors", replay.errors),
        )
        .set("host", Json::obj().set("replay_ms", replay_host_ms));
    let path = bench_out_path("server");
    std::fs::write(&path, doc.render())?;
    println!("\n  wrote {}", path.display());

    Ok(())
}
