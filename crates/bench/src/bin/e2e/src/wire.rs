//! The served path: the daemon on its own thread, two closed-loop
//! connections driven from this one, and the response checker.
//!
//! Load shape: a closed loop. Each connection keeps one window of
//! pipelined requests in flight, written with a single `write_all`; the
//! client thread reads connection A's window and sends A's next one at once,
//! then does the same for B. A depth-1 client instead phase-locks with
//! the reactor's idle sleep, and its throughput flips between two modes
//! from run to run. With windows, the reactor usually takes both
//! connections' windows in one sweep, so the two settle into step: one
//! combining window holds both, and each cycle carries one idle sweep
//! while the client thread turns the two windows around.

use crate::gen::{ConnStream, Expect, Model, Op, CONNS, DEVICE_BLOCKS, META_BYTES};
use crate::measure::{process_cpu_ticks, Metric};
use crate::trace::Spans;
use sero_core::admission::AdmissionStats;
use sero_core::device::SeroDevice;
use sero_fs::concurrent::ConcurrentFs;
use sero_fs::fs::{FsConfig, FsStats, SeroFs};
use sero_probe::timing::OpCounters;
use sero_proto::frame::{encode_request, read_frame, FrameError};
use sero_proto::{Request, Response, WireLine, WireVerdict};
use sero_server::{SeroServer, ServerConfig, ServerHandle};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a client waits for a response before calling the transport
/// failed rather than hanging the benchmark.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// Formats the device and builds the workload's starting state through
/// the command door. Every population request must succeed.
pub fn build_fs(population: &[Request]) -> ConcurrentFs {
    // The medium's dot array is zeroed memory that the OS maps lazily, so
    // a fresh device grows resident as blocks are written and peak RSS
    // would track how many blocks a run wrote. A clone is resident in
    // full from the start.
    let device = SeroDevice::with_blocks(DEVICE_BLOCKS).clone();
    let fs = SeroFs::format(device, FsConfig::default())
        .expect("the default configuration tiles the benchmark device");
    let cfs = ConcurrentFs::new(fs);
    for req in population {
        let resp = cfs.handle(req.clone());
        assert!(
            matches!(resp, Response::Created { .. } | Response::Heated { .. }),
            "population request {req:?} answered {resp:?}"
        );
    }
    cfs
}

/// A running daemon and the two connections that drive it.
pub struct Served {
    pub cfs: ConcurrentFs,
    pub clients: Vec<Client>,
    handle: ServerHandle,
}

impl Served {
    /// Serves `cfs` with the default reactor on a thread of its own and
    /// connects one client per stream of `model`.
    pub fn start(cfs: ConcurrentFs, model: &Model) -> Served {
        let server = SeroServer::bind_shared("127.0.0.1:0", cfs.clone(), ServerConfig::default())
            .expect("bind a loopback port");
        let handle = server.spawn().expect("spawn the reactor thread");
        let clients = (0..CONNS)
            .map(|conn| Client::connect(handle.addr(), model.stream(conn)))
            .collect();
        Served {
            cfs,
            clients,
            handle,
        }
    }

    /// Closes the connections, stops the reactor and joins its thread.
    pub fn stop(self) {
        drop(self.clients);
        self.handle.shutdown();
    }
}

/// One connection and the stream that feeds it.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    pub stream: ConnStream,
    inflight: Option<Window>,
    dead: bool,
}

struct Window {
    ops: Vec<Op>,
    first_req: u64,
    sent: Instant,
    /// Index in the recorder, when the phase is traced.
    slot: Option<usize>,
}

impl Client {
    fn connect(addr: SocketAddr, stream: ConnStream) -> Client {
        let writer = TcpStream::connect(addr).expect("connect to the daemon");
        writer.set_nodelay(true).expect("set TCP_NODELAY");
        writer
            .set_read_timeout(Some(CLIENT_TIMEOUT))
            .expect("set a read deadline");
        let reader = BufReader::new(writer.try_clone().expect("clone the socket"));
        Client {
            reader,
            writer,
            stream,
            inflight: None,
            dead: false,
        }
    }

    fn read_response(&mut self) -> Result<Response, FrameError> {
        let (_, payload) = read_frame(&mut self.reader)?.ok_or_else(|| FrameError::Io {
            reason: "the daemon closed the connection".to_string(),
            timed_out: false,
        })?;
        Response::decode(&payload)
    }

    /// One request, answered before returning: the final checks use it.
    pub fn call(&mut self, req: &Request) -> Result<Response, FrameError> {
        let frame = encode_request(req)?;
        self.writer.write_all(&frame)?;
        self.read_response()
    }

    /// Generates and sends the next window. False when the stream is
    /// exhausted or the transport failed.
    fn send_next(&mut self, next_req: &mut u64, rec: &mut Option<&mut Recorder>) -> bool {
        let Some(ops) = self.stream.next_window() else {
            return false;
        };
        let first_req = *next_req;
        *next_req += ops.len() as u64;
        let sent = Instant::now();
        let mut wire = Vec::new();
        for op in &ops {
            wire.extend_from_slice(&encode_request(&op.req).expect("requests fit one frame"));
        }
        let ok = self.writer.write_all(&wire).is_ok();
        let slot = rec.as_deref_mut().map(|r| {
            let parent = r.root;
            let span = r.spans.push(
                "wire.send",
                sent,
                Instant::now(),
                Some(parent),
                Some(first_req),
            );
            r.windows.push(ops.clone());
            r.responses.push(Vec::with_capacity(ops.len()));
            r.send_spans.push(span);
            r.windows.len() - 1
        });
        self.inflight = Some(Window {
            ops,
            first_req,
            sent,
            slot,
        });
        if !ok {
            self.dead = true;
        }
        ok
    }
}

/// What a traced phase keeps: spans, and every window with its answers
/// for the in-process replay.
pub struct Recorder<'a> {
    pub spans: &'a mut Spans,
    pub root: u32,
    pub windows: Vec<Vec<Op>>,
    pub responses: Vec<Vec<Response>>,
    send_spans: Vec<u32>,
}

impl<'a> Recorder<'a> {
    pub fn new(spans: &'a mut Spans, root: u32) -> Recorder<'a> {
        Recorder {
            spans,
            root,
            windows: Vec::new(),
            responses: Vec::new(),
            send_spans: Vec::new(),
        }
    }
}

/// Counters of every layer at one instant, read through public getters.
/// Taking one waits for the combining window in progress, so the phase
/// takes one at each end only.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    pub device_ns: u128,
    pub probe: OpCounters,
    pub fs: FsStats,
    pub admission: AdmissionStats,
}

impl Snapshot {
    pub fn take(cfs: &ConcurrentFs) -> Snapshot {
        let (device_ns, probe, fs) = cfs.with_fs(|fs| {
            let probe = fs.device().probe();
            (probe.clock().elapsed_ns(), *probe.counters(), fs.stats())
        });
        Snapshot {
            device_ns,
            probe,
            fs,
            admission: cfs.admission_stats(),
        }
    }
}

/// Counter deltas between two snapshots.
pub struct Delta {
    pub probe: OpCounters,
    pub fs: FsStats,
    pub admission: AdmissionStats,
}

impl Delta {
    pub fn between(a: &Snapshot, b: &Snapshot) -> Delta {
        let (p, q) = (&a.probe, &b.probe);
        let (f, g) = (&a.fs, &b.fs);
        let (s, t) = (&a.admission, &b.admission);
        Delta {
            probe: OpCounters {
                mrb: q.mrb - p.mrb,
                mwb: q.mwb - p.mwb,
                ewb: q.ewb - p.ewb,
                erb: q.erb - p.erb,
                seeks: q.seeks - p.seeks,
                steps: q.steps - p.steps,
                mrs: q.mrs - p.mrs,
                mws: q.mws - p.mws,
                ers: q.ers - p.ers,
                ews: q.ews - p.ews,
            },
            fs: FsStats {
                files_created: g.files_created - f.files_created,
                files_removed: g.files_removed - f.files_removed,
                blocks_written: g.blocks_written - f.blocks_written,
                blocks_read: g.blocks_read - f.blocks_read,
                heats: g.heats - f.heats,
                cleaner_runs: g.cleaner_runs - f.cleaner_runs,
                cleaner_copied: g.cleaner_copied - f.cleaner_copied,
                cleaner_reclaimed: g.cleaner_reclaimed - f.cleaner_reclaimed,
                cleaner_skipped_heated: g.cleaner_skipped_heated - f.cleaner_skipped_heated,
            },
            admission: AdmissionStats {
                submitted: t.submitted - s.submitted,
                executed: t.executed - s.executed,
                batches: t.batches - s.batches,
                reads_merged: t.reads_merged - s.reads_merged,
                writes_merged: t.writes_merged - s.writes_merged,
                heats_merged: t.heats_merged - s.heats_merged,
                blocks_deduped: t.blocks_deduped - s.blocks_deduped,
                fallbacks: t.fallbacks - s.fallbacks,
            },
        }
    }

    pub fn probe_counts(&self, n: f64) -> [Metric; 5] {
        let p = &self.probe;
        [
            Metric::new("probe.mrs_per_op", p.mrs as f64 / n, "count"),
            Metric::new("probe.mws_per_op", p.mws as f64 / n, "count"),
            Metric::new("probe.ers_per_op", p.ers as f64 / n, "count"),
            Metric::new("probe.ews_per_op", p.ews as f64 / n, "count"),
            Metric::new("probe.seeks_per_op", p.seeks as f64 / n, "count"),
        ]
    }

    pub fn admission_counts(&self, n: f64) -> [Metric; 3] {
        let a = &self.admission;
        let merged_frac = if a.submitted == 0 {
            0.0
        } else {
            a.reads_merged as f64 / a.submitted as f64
        };
        [
            Metric::new("core.admission.reads_merged_frac", merged_frac, "fraction"),
            Metric::new(
                "core.admission.blocks_deduped_per_op",
                a.blocks_deduped as f64 / n,
                "count",
            ),
            Metric::new("core.admission.fallbacks", a.fallbacks as f64, "count"),
        ]
    }

    pub fn fs_counts(&self, n: f64) -> [Metric; 3] {
        let f = &self.fs;
        [
            Metric::new("fs.blocks_read_per_op", f.blocks_read as f64 / n, "count"),
            Metric::new(
                "fs.blocks_written_per_op",
                f.blocks_written as f64 / n,
                "count",
            ),
            Metric::new(
                "fs.cleaner_copied_per_op",
                f.cleaner_copied as f64 / n,
                "count",
            ),
        ]
    }
}

/// Wall clock and process CPU time at a slice boundary.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub at: Instant,
    pub cpu_ticks: u64,
}

impl Mark {
    fn now() -> Mark {
        Mark {
            at: Instant::now(),
            cpu_ticks: process_cpu_ticks(),
        }
    }
}

/// The measured part of a phase: a warm-up, then `measure` of wall time
/// cut into slices of `slice_requests` responses each. A slice still
/// open when the time is up is dropped, so every slice holds enough
/// samples for its p99. Without `slice_requests` the measured time is
/// one slice.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warmup: Duration,
    pub measure: Duration,
    pub slice_requests: Option<u64>,
}

/// One measured slice: the responses read inside it.
#[derive(Debug, Clone)]
pub struct Slice {
    pub ops: u64,
    pub latencies_ns: Vec<u64>,
    pub start: Mark,
    pub end: Mark,
}

impl Slice {
    pub fn wall_s(&self) -> f64 {
        (self.end.at - self.start.at).as_secs_f64()
    }
}

/// Everything a phase observed.
pub struct Phase {
    pub slices: Vec<Slice>,
    /// Counters when measuring began and when it ended.
    pub counters: Option<(Snapshot, Snapshot)>,
    /// Responses read between those two snapshots.
    pub measured: u64,
    /// Requests sent, measured or not.
    pub sent: u64,
    /// Requests lost to a failed transport.
    pub transport_failures: u64,
}

/// Drives both connections until the plan's measured time is up or the
/// streams run out, then drains what is still in flight. Every response
/// goes through `checker`; latencies count only inside slices.
pub fn run_phase(
    clients: &mut [Client],
    cfs: &ConcurrentFs,
    checker: &mut Checker,
    plan: &Plan,
    mut rec: Option<&mut Recorder>,
) -> Phase {
    let mut next_req = 0u64;
    let mut sending = true;
    for client in clients.iter_mut() {
        sending &= client.send_next(&mut next_req, &mut rec);
    }
    let measure_from = Instant::now() + plan.warmup;
    let mut measure_until: Option<Instant> = None;
    let mut first: Option<Snapshot> = None;
    let mut counters = None;
    let mut slices: Vec<Slice> = Vec::new();
    let mut open: Option<(Mark, u64, Vec<u64>)> = None;
    let mut measured = 0u64;
    let mut transport_failures = 0u64;
    loop {
        let mut in_flight = false;
        for client in clients.iter_mut() {
            let Some(window) = client.inflight.take() else {
                continue;
            };
            in_flight = true;
            for (i, op) in window.ops.iter().enumerate() {
                let read_from = Instant::now();
                let resp = match client.read_response() {
                    Ok(resp) => resp,
                    Err(e) => {
                        eprintln!("transport failure: {e}");
                        transport_failures += (window.ops.len() - i) as u64;
                        client.dead = true;
                        break;
                    }
                };
                let done = Instant::now();
                measured += u64::from(first.is_some());
                if let Some((_, ops, latencies)) = open.as_mut() {
                    *ops += 1;
                    latencies.push((done - window.sent).as_nanos() as u64);
                }
                if let (Some(r), Some(slot)) = (rec.as_deref_mut(), window.slot) {
                    let parent = r.send_spans[slot];
                    r.spans.push(
                        "wire.recv",
                        read_from,
                        done,
                        Some(parent),
                        Some(window.first_req + i as u64),
                    );
                    r.responses[slot].push(resp.clone());
                }
                checker.check(op, &resp);
            }
            if client.dead {
                sending = false;
            } else if sending {
                sending = client.send_next(&mut next_req, &mut rec);
            }
        }
        let now = Instant::now();
        match (measure_until, open.take()) {
            (None, _) if sending && now >= measure_from => {
                first = Some(Snapshot::take(cfs));
                measure_until = Some(now + plan.measure);
                open = Some((Mark::now(), 0, Vec::new()));
            }
            (Some(until), Some((start, ops, latencies_ns))) => {
                let over = !sending || now >= until;
                let full = plan.slice_requests.is_some_and(|n| ops >= n);
                if full || (over && plan.slice_requests.is_none()) {
                    let end = Mark::now();
                    slices.push(Slice {
                        ops,
                        latencies_ns,
                        start,
                        end,
                    });
                    if !over {
                        open = Some((end, 0, Vec::new()));
                    }
                } else if !over {
                    open = Some((start, ops, latencies_ns));
                }
                if over {
                    sending = false;
                    counters = first.take().map(|f| (f, Snapshot::take(cfs)));
                }
            }
            _ => {}
        }
        if !in_flight {
            break;
        }
    }
    Phase {
        slices,
        counters,
        measured,
        sent: next_req,
        transport_failures,
    }
}

/// Checks every response against the generator's expectation.
#[derive(Debug)]
pub struct Checker<'m> {
    model: &'m Model,
    /// Responses checked.
    pub answered: u64,
    /// Typed error responses where the generator expected success.
    pub errors: u64,
    /// Responses that answered with wrong data.
    pub wrong: u64,
    pub first_problem: Option<String>,
    /// Lines the files heated by this pass went into, in heat order.
    pub sealed: Vec<(String, WireLine)>,
    heated: HashMap<String, WireLine>,
    /// SHA-256 input bytes implied by the heats and verifies answered.
    pub bytes_hashed: u64,
}

/// Bytes `SeroDevice` hashes for one line: the domain tag, order and
/// start, then each data block's address and contents.
pub fn line_hash_bytes(line: WireLine) -> u64 {
    let data_blocks = (1u64 << line.order) - 1;
    12 + 1 + 8 + data_blocks * (8 + 512)
}

impl<'m> Checker<'m> {
    pub fn new(model: &'m Model) -> Checker<'m> {
        Checker {
            model,
            answered: 0,
            errors: 0,
            wrong: 0,
            first_problem: None,
            sealed: Vec::new(),
            heated: HashMap::new(),
            bytes_hashed: 0,
        }
    }

    fn problem(&mut self, wrong: bool, what: String) {
        if wrong {
            self.wrong += 1;
        } else {
            self.errors += 1;
        }
        if self.first_problem.is_none() {
            self.first_problem = Some(what);
        }
    }

    pub fn check(&mut self, op: &Op, resp: &Response) {
        self.answered += 1;
        if let Response::Error(e) = resp {
            self.problem(false, format!("{:?} answered {e}", op.req));
            return;
        }
        let ok = match (&op.expect, resp) {
            (Expect::Data(i), Response::Data { bytes }) => *bytes == self.model.contents[*i],
            (Expect::Created, Response::Created { .. }) => true,
            (Expect::Heated, Response::Heated { line }) => {
                let name = request_name(&op.req);
                self.heated.insert(name.clone(), *line);
                self.sealed.push((name, *line));
                self.bytes_hashed += line_hash_bytes(*line);
                true
            }
            (
                Expect::Intact {
                    metadata,
                    timestamp,
                },
                Response::Verified(WireVerdict::Intact {
                    line,
                    digest,
                    timestamp: sealed_at,
                    metadata: sealed,
                }),
            ) => {
                self.bytes_hashed += line_hash_bytes(*line);
                self.heated.get(&request_name(&op.req)) == Some(line)
                    && digest.len() == 32
                    && sealed_at == timestamp
                    && sealed == metadata
            }
            (Expect::Stat, Response::Stat(info)) => {
                info.size == META_BYTES as u64 && info.blocks == 1 && info.heated.is_none()
            }
            (Expect::Page { cursor }, Response::Names { names, next }) => {
                self.page_is_plausible(cursor, names, next.as_deref())
            }
            (Expect::Removed, Response::Removed) => true,
            _ => false,
        };
        if !ok {
            self.problem(true, format!("{:?} answered {resp:?}", op.req));
        }
    }

    /// A page taken while the other connection creates and removes its
    /// own files: strictly ascending after the cursor, at most the page
    /// limit, every stable name in its range present, and nothing else
    /// but churn-shaped names.
    fn page_is_plausible(&self, cursor: &str, names: &[String], next: Option<&str>) -> bool {
        let limit = crate::gen::LIST_LIMIT as usize;
        let ascending = names.windows(2).all(|w| w[0] < w[1]);
        let after_cursor = names.first().is_none_or(|n| n.as_str() > cursor);
        if !ascending || !after_cursor || names.len() > limit {
            return false;
        }
        // More names follow only after a full page, resuming at its end.
        if next.is_some_and(|n| names.len() != limit || Some(n) != names.last().map(String::as_str))
        {
            return false;
        }
        let stable = &self.model.stable_names;
        let from = stable.partition_point(|n| n.as_str() <= cursor);
        let to = match (next, names.last()) {
            (Some(_), Some(last)) => stable.partition_point(|n| n <= last),
            _ => stable.len(),
        };
        let mut listed = names.iter().peekable();
        for want in &stable[from..to] {
            while listed.next_if(|n| *n < want).is_some() {}
            if listed.next_if(|n| *n == want).is_none() {
                return false;
            }
        }
        names
            .iter()
            .all(|n| stable.binary_search(n).is_ok() || n.contains('.'))
    }
}

fn request_name(req: &Request) -> String {
    match req {
        Request::Heat { name, .. } | Request::Verify { name } => name.clone(),
        other => panic!("{other:?} is checked by name only for heats and verifies"),
    }
}
