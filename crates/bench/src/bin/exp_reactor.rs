//! EXP-REACTOR — readiness batching against the hand-off rate.
//!
//! PR 9 replaced the blocking thread-per-connection daemon with a
//! readiness-driven reactor: every request readable in one event-loop
//! sweep dispatches as a *single* [`ConcurrentFs::handle_batch`]
//! window, so n concurrent clients form depth-n admission batches. This
//! experiment measures whether the wire actually delivers the depth
//! curve PR 7 proved in-process:
//!
//! * **Framed ready-set sweep** (the compared `"metrics"`): the same
//!   shuffled read script replays at ready-set sizes 1/2/4/8/16 — each
//!   window is encoded to wire frames, fed through a [`FrameAssembler`]
//!   in deterministically varied byte chunks (the reactor's receive
//!   path), decoded, and dispatched as one batch. Device nanoseconds are
//!   the metric; `throughput_x8` is asserted **≥ 2.5×** like
//!   `exp_concurrency`, and every ready-set size must produce
//!   byte-identical responses.
//! * **Framed tamper drill** (also `"metrics"`): a heated line is
//!   tampered through the raw probe; the framed `verify` must answer
//!   `TAMPER-DETECTED` — the detection guarantee survives reassembly.
//! * **Byte-identity with the in-process door**: the identical command
//!   script — including a raw-write tamper and its verify — runs over a
//!   real socket against the reactor daemon and in-process through
//!   `SeroFs::handle`; every response payload must match byte-for-byte
//!   (`responses_identical`).
//! * **Reactor swarm** (the informational `"host"`): real `sero-client`
//!   swarms of 1/2/4/8/16 closed-loop connections against a reactor
//!   daemon, plus an idle-connection axis (0/128/256 silent sockets held
//!   open alongside 8 active clients). Wall numbers land under `"host"`;
//!   the **blocking** acceptance check is the in-binary assertion that
//!   the 8-client swarm's ops per *device*-second reaches ≥ 0.8× the
//!   simulated depth-8 curve — the swarm must track the admission curve
//!   instead of flatlining at the hand-off rate.
//!
//! Emits `BENCH_reactor.json` (schema `sero-bench/v1`, compared
//! **blocking** in CI) and `reactor_trace.json` (per-swarm latency
//! tails; a CI artifact, never compared). `SERO_BENCH_FAST=1` shrinks
//! only the host swarms — the deterministic phases are identical in both
//! modes.

use sero_bench::json::Json;
use sero_bench::{
    bench_out_path, device_clock_ns, fast_mode, ns_to_us as us, percentile_ns as percentile, row,
    trace_out_path,
};
use sero_client::SeroClient;
use sero_core::device::SeroDevice;
use sero_fs::concurrent::ConcurrentFs;
use sero_fs::fs::{FsConfig, SeroFs};
use sero_proto::frame::{encode_request, read_frame, write_frame, FrameAssembler, FrameKind};
use sero_proto::{ErrorCode, Request, Response, WireClass};
use sero_server::{SeroServer, ServerConfig};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Same hot population as `exp_concurrency`, so the ready-set curve here
/// is directly comparable to the in-process depth curve there.
const HOT_FILES: usize = 384;
const HOT_BYTES: usize = 400;

/// Archival files for the tamper drill.
const ARCHIVE_FILES: usize = 4;
const ARCHIVE_BYTES: usize = 1100;

/// Reads in the ready-set sweep script (divisible by every swept size).
const SWEEP_OPS: usize = 192;

const DEVICE_BLOCKS: u64 = 8192;

/// The swarm the acceptance bar applies to, and its simulated twin.
const TRACKED_CLIENTS: usize = 8;

/// Blocking bar: the 8-client swarm's ops per device-second must reach
/// this fraction of the simulated depth-8 admission curve.
const TRACKING_FLOOR: f64 = 0.8;

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

/// The benchmark population, identical for every phase.
fn build_fs() -> ConcurrentFs {
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
    for i in 0..ARCHIVE_FILES {
        let resp = cfs.handle(Request::Create {
            name: archive_name(i),
            data: vec![0x40 | i as u8; ARCHIVE_BYTES],
            class: WireClass::Archival,
        });
        assert!(matches!(resp, Response::Created { .. }), "{resp:?}");
    }
    cfs
}

/// The shuffled read script every ready-set size replays identically.
fn read_script(ops: usize) -> Vec<Request> {
    let mut lcg = Lcg(0x5EC0_2008);
    (0..ops)
        .map(|_| Request::Read {
            name: hot_name((lcg.next() % HOT_FILES as u64) as usize),
        })
        .collect()
}

/// Replays `script` at one ready-set size through the reactor's receive
/// path: each window's frames are concatenated (the bytes `depth`
/// readable sockets hold), fed to the assembler in deterministically
/// varied chunk sizes, decoded, and dispatched as one batch window.
/// Returns (device ns, responses, frames reassembled, chunks fed).
fn run_ready_set(depth: usize, script: &[Request]) -> (u128, Vec<Response>, u64, u64) {
    let cfs = build_fs();
    cfs.with_fs(|fs| fs.device_mut().probe_mut().park_at(0));
    let start = cfs.with_fs(|fs| device_clock_ns(fs));
    let mut asm = FrameAssembler::new();
    let mut lcg = Lcg(0xC41B_EE75 ^ depth as u64);
    let mut responses = Vec::with_capacity(script.len());
    let mut frames = 0u64;
    let mut chunks = 0u64;
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
    let elapsed = cfs.with_fs(|fs| device_clock_ns(fs)) - start;
    (elapsed, responses, frames, chunks)
}

/// The framed tamper drill: heat an archive file, rewrite one protected
/// block through the raw probe, and drive `verify` through the frame
/// codec. Returns 1 if (and only if) the evidence surfaced.
fn run_framed_tamper() -> u64 {
    let cfs = build_fs();
    let line = match cfs.handle(Request::Heat {
        name: archive_name(0),
        metadata: b"exp-reactor".to_vec(),
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
    let verdict = cfs.handle(Request::decode(&payload).expect("own payload"));
    match verdict {
        Response::Error(e) if e.code == ErrorCode::TamperDetected => 1,
        other => panic!("tampered line verified clean: {other:?}"),
    }
}

/// Runs the wire script over a real socket against a reactor daemon.
/// Returns every response payload, byte-for-byte.
fn run_wire_script_served() -> Vec<Vec<u8>> {
    let server = SeroServer::bind_shared(
        "127.0.0.1:0",
        build_fs(),
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

/// Runs the wire script in-process through [`SeroFs::handle`] on the same
/// population, encoding each response as the daemon would send it.
fn run_wire_script_in_process() -> Vec<Vec<u8>> {
    build_fs().with_fs(|fs| wire_script(|req| fs.handle(req.clone()).encode()))
}

/// The identical command script — reads, a heat, a raw tamper, its
/// verify, and status queries — issued through `call`, which returns each
/// encoded response payload.
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

struct Swarm {
    clients: usize,
    idle: usize,
    ops: usize,
    wall_ms: f64,
    device_ns: u128,
    latencies: Vec<u128>,
}

impl Swarm {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.wall_ms / 1e3)
    }

    fn ops_per_device_s(&self) -> f64 {
        self.ops as f64 / (self.device_ns as f64 / 1e9)
    }
}

/// Runs `clients` closed-loop read clients (plus `idle` silent held
/// sockets) against a reactor daemon sharing our [`ConcurrentFs`], so
/// the simulated device clock is observable from outside.
fn run_swarm(clients: usize, ops_per_client: usize, idle: usize) -> Swarm {
    let cfs = build_fs();
    let shared = cfs.clone();
    shared.with_fs(|fs| fs.device_mut().probe_mut().park_at(0));
    let server = SeroServer::bind_shared(
        "127.0.0.1:0",
        cfs,
        ServerConfig {
            max_connections: 2048,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr: SocketAddr = handle.addr();

    // The idle population: connected, silent, and held open throughout.
    let mut idle_conns: Vec<TcpStream> = (0..idle)
        .map(|_| TcpStream::connect(addr).expect("idle connect"))
        .collect();

    let device_start = shared.with_fs(|fs| device_clock_ns(fs));
    let wall = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = SeroClient::connect(addr).expect("connect");
                let mut lcg = Lcg(0xFEED ^ c as u64);
                let mut latencies = Vec::with_capacity(ops_per_client);
                for _ in 0..ops_per_client {
                    let name = hot_name((lcg.next() % HOT_FILES as u64) as usize);
                    let t = Instant::now();
                    client.read(&name).expect("read");
                    latencies.push(t.elapsed().as_nanos());
                }
                latencies
            })
        })
        .collect();
    let latencies: Vec<u128> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("swarm client"))
        .collect();
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let device_ns = shared.with_fs(|fs| device_clock_ns(fs)) - device_start;

    // The idle sockets must have survived the whole swarm: a sampled few
    // still answer a ping each.
    for conn in idle_conns.iter_mut().take(16) {
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("deadline");
        write_frame(conn, FrameKind::Request, &Request::Ping.encode()).expect("idle ping");
        let (_, payload) = read_frame(conn).expect("idle recv").expect("idle response");
        assert_eq!(
            Response::decode(&payload).expect("pong"),
            Response::Pong,
            "an idle connection went dead under load"
        );
    }
    drop(idle_conns);
    handle.shutdown();
    Swarm {
        clients,
        idle,
        ops: clients * ops_per_client,
        wall_ms,
        device_ns,
        latencies,
    }
}

fn swarm_json(s: &Swarm) -> Json {
    Json::obj()
        .set("ops", s.ops)
        .set("wall_ms", s.wall_ms)
        .set("ops_per_s", s.ops_per_s())
        .set("device_ms", s.device_ns as f64 / 1e6)
        .set("ops_per_device_s", s.ops_per_device_s())
        .set("p50_us", us(percentile(&s.latencies, 0.50)))
        .set("p99_us", us(percentile(&s.latencies, 0.99)))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fast = fast_mode();
    let ops_per_client = if fast { 150 } else { 400 };
    let idle_ops_per_client = if fast { 80 } else { 200 };
    let swarm_sizes = [1usize, 2, 4, 8, 16];
    let idle_sizes = [0usize, 128, 256];
    println!(
        "EXP-REACTOR: {HOT_FILES} hot files, {SWEEP_OPS}-op script, ready sets 1/2/4/8/16, \
         swarms {swarm_sizes:?} x {ops_per_client} ops{}\n",
        if fast { " (fast mode)" } else { "" },
    );

    // --- framed ready-set sweep (deterministic) ---------------------------
    let script = read_script(SWEEP_OPS);
    let depths = [1usize, 2, 4, 8, 16];
    let mut device_ns = Vec::new();
    let mut frames_total = 0u64;
    let mut chunks_total = 0u64;
    let mut baseline: Option<Vec<Response>> = None;
    let widths = [10, 14, 14, 10, 10];
    println!(
        "{}",
        row(
            &["ready-set", "device ms", "ops/dev-s", "frames", "chunks"],
            &widths
        )
    );
    for &depth in &depths {
        let (ns, responses, frames, chunks) = run_ready_set(depth, &script);
        match &baseline {
            None => baseline = Some(responses),
            Some(base) => assert_eq!(
                base, &responses,
                "ready-set {depth} changed a response — reassembly must be invisible"
            ),
        }
        println!(
            "{}",
            row(
                &[
                    &format!("{depth}"),
                    &format!("{:.2}", ns as f64 / 1e6),
                    &format!("{:.0}", SWEEP_OPS as f64 / (ns as f64 / 1e9)),
                    &format!("{frames}"),
                    &format!("{chunks}"),
                ],
                &widths
            )
        );
        device_ns.push(ns);
        frames_total += frames;
        chunks_total += chunks;
    }
    let ratio = |d: usize| {
        device_ns[0] as f64 / device_ns[depths.iter().position(|&x| x == d).unwrap()] as f64
    };
    let (x2, x4, x8, x16) = (ratio(2), ratio(4), ratio(8), ratio(16));
    let sim8_ops_per_device_s =
        SWEEP_OPS as f64 / (device_ns[depths.iter().position(|&x| x == 8).unwrap()] as f64 / 1e9);
    println!("\n  ready-set 8: {x8:.2}x the one-at-a-time schedule (bar: >= 2.5x)");
    assert!(
        x8 >= 2.5,
        "framed admission merging must clear the 2.5x bar, got {x8:.2}x"
    );

    // --- framed tamper drill ----------------------------------------------
    let tampered = run_framed_tamper();
    println!("  framed tamper drill: evidence found ({tampered} line)");

    // --- byte-identity with the in-process door ---------------------------
    let in_process_outs = run_wire_script_in_process();
    let reactor_outs = run_wire_script_served();
    assert_eq!(
        in_process_outs, reactor_outs,
        "reactor responses must be byte-identical to in-process SeroFs::handle"
    );
    let wire_script_commands = reactor_outs.len() as u64;
    println!(
        "  wire script: {wire_script_commands} commands byte-identical between the reactor \
         and in-process SeroFs::handle (tamper evidence included)\n"
    );

    // --- reactor swarms (host) --------------------------------------------
    let swarms: Vec<Swarm> = swarm_sizes
        .iter()
        .map(|&n| run_swarm(n, ops_per_client, 0))
        .collect();
    let widths = [10, 8, 12, 12, 14, 12];
    println!(
        "{}",
        row(
            &["clients", "ops", "p50", "p99", "ops/dev-s", "ops/s"],
            &widths
        )
    );
    for s in &swarms {
        println!(
            "{}",
            row(
                &[
                    &format!("{}", s.clients),
                    &format!("{}", s.ops),
                    &format!("{:.0} us", us(percentile(&s.latencies, 0.50))),
                    &format!("{:.0} us", us(percentile(&s.latencies, 0.99))),
                    &format!("{:.0}", s.ops_per_device_s()),
                    &format!("{:.0}", s.ops_per_s()),
                ],
                &widths
            )
        );
    }

    // The acceptance bar: the 8-client swarm must track the simulated
    // depth-8 admission curve on the only fair axis — device time.
    let swarm8 = swarms
        .iter()
        .find(|s| s.clients == TRACKED_CLIENTS)
        .expect("tracked swarm present");
    let tracking = swarm8.ops_per_device_s() / sim8_ops_per_device_s;
    println!(
        "\n  tracking: swarm-8 {:.0} ops/dev-s vs simulated depth-8 {:.0} ops/dev-s \
         = {tracking:.2}x (floor: {TRACKING_FLOOR})",
        swarm8.ops_per_device_s(),
        sim8_ops_per_device_s,
    );
    assert!(
        tracking >= TRACKING_FLOOR,
        "the swarm must track the simulated depth-8 admission curve within 20%, \
         got {tracking:.2}x — readiness batching is not forming deep windows"
    );

    // --- idle-connection axis (host) --------------------------------------
    let idle_swarms: Vec<Swarm> = idle_sizes
        .iter()
        .map(|&idle| run_swarm(TRACKED_CLIENTS, idle_ops_per_client, idle))
        .collect();
    for s in &idle_swarms {
        println!(
            "  idle axis: {} idle + {} active -> {:.0} ops/s, p99 {:.0} us",
            s.idle,
            s.clients,
            s.ops_per_s(),
            us(percentile(&s.latencies, 0.99)),
        );
    }

    let doc = Json::obj()
        .set("schema", "sero-bench/v1")
        .set("bench", "reactor")
        .set("fast_mode", fast)
        .set(
            "device",
            Json::obj()
                .set("blocks", DEVICE_BLOCKS)
                .set("hot_files", HOT_FILES)
                .set("hot_bytes", HOT_BYTES)
                .set("archive_files", ARCHIVE_FILES)
                .set("archive_bytes", ARCHIVE_BYTES)
                .set("sweep_ops", SWEEP_OPS)
                .set("ops_per_client", ops_per_client)
                .set("idle_ops_per_client", idle_ops_per_client),
        )
        .set(
            "metrics",
            Json::obj()
                .set("ready_1_device_ms", device_ns[0] as f64 / 1e6)
                .set("ready_2_device_ms", device_ns[1] as f64 / 1e6)
                .set("ready_4_device_ms", device_ns[2] as f64 / 1e6)
                .set("ready_8_device_ms", device_ns[3] as f64 / 1e6)
                .set("ready_16_device_ms", device_ns[4] as f64 / 1e6)
                .set("throughput_x2", x2)
                .set("throughput_x4", x4)
                .set("throughput_x8", x8)
                .set("throughput_x16", x16)
                .set("sim_depth8_ops_per_device_s", sim8_ops_per_device_s)
                .set("frames_reassembled", frames_total)
                .set("reassembly_chunks", chunks_total)
                .set("wire_script_commands", wire_script_commands)
                .set("responses_identical", 1u64)
                .set("tampered", tampered),
        )
        .set("host", {
            let mut host = Json::obj().set(
                "tracking",
                Json::obj()
                    .set("swarm_8_ops_per_device_s", swarm8.ops_per_device_s())
                    .set("sim_depth8_ops_per_device_s", sim8_ops_per_device_s)
                    .set("ratio", tracking)
                    .set("floor", TRACKING_FLOOR),
            );
            for s in &swarms {
                host = host.set(&format!("swarm_{}", s.clients), swarm_json(s));
            }
            for s in &idle_swarms {
                host = host.set(&format!("idle_{}", s.idle), swarm_json(s));
            }
            host
        });
    let path = bench_out_path("reactor");
    std::fs::write(&path, doc.render())?;
    println!("\n  wrote {}", path.display());

    // Latency tails per swarm — a CI artifact for humans, never compared.
    let entries: Vec<Json> = swarms
        .iter()
        .chain(idle_swarms.iter())
        .map(|s| {
            Json::obj()
                .set("clients", s.clients)
                .set("idle", s.idle)
                .set("ops", s.ops)
                .set("p50_us", us(percentile(&s.latencies, 0.50)))
                .set("p90_us", us(percentile(&s.latencies, 0.90)))
                .set("p99_us", us(percentile(&s.latencies, 0.99)))
                .set("max_us", us(*s.latencies.iter().max().expect("ops")))
                .set("wall_ms", s.wall_ms)
                .set("ops_per_s", s.ops_per_s())
                .set("ops_per_device_s", s.ops_per_device_s())
        })
        .collect();
    let trace = Json::obj()
        .set("schema", "sero-bench-trace/v1")
        .set("bench", "reactor")
        .set("swarms", Json::Arr(entries));
    let trace_path = trace_out_path("reactor_trace.json");
    std::fs::write(&trace_path, trace.render())?;
    println!("  wrote {}", trace_path.display());

    Ok(())
}
