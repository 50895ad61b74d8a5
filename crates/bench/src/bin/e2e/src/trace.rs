//! The traced run: spans recorded around the calls into each layer, an
//! in-process replay of the traced windows, and timed calls of each
//! layer's primitives. The per-layer metrics come from these three.
//!
//! 1. The daemon is driven twice, for a quarter of `--seconds` each,
//!    from the same starting state and stream: once untraced, once
//!    recording a span around every window send and every response read.
//!    The throughput gap between the two is the tracing overhead.
//! 2. The traced windows replay in-process on fresh copies of the
//!    starting state: the frame codec on every request and response,
//!    then `ConcurrentFs::handle_batch` once per window (with counter
//!    deltas of every layer), then `ConcurrentFs::handle` once per
//!    request for the per-kind costs.
//! 3. Between the `handle_batch` windows, each primitive is timed alone
//!    on another copy of the starting state.
//!
//! Every host cost is the median over its calls (per request, per window
//! or per primitive call), so the costs that the self-time arithmetic
//! subtracts from one another are all typical values, and a few seconds
//! of interference from other tenants moves none of them. Interleaving
//! step 3 with step 2 makes both sample the same spells of host speed.

use crate::gen::{Model, SplitMix64};
use crate::measure::{
    median, self_times, Metric, PrimitiveCosts, PrimitiveCounts, Report, SelfTimeInputs,
};
use crate::wire::{
    build_fs, line_hash_bytes, run_phase, Checker, Delta, Plan, Recorder, Served, Snapshot,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sero_core::device::SeroDevice;
use sero_core::layout::HashBlockPayload;
use sero_core::line::Line;
use sero_crypto::sha256;
use sero_fs::concurrent::ConcurrentFs;
use sero_media::dot::DotState;
use sero_media::mfm::ReadChannel;
use sero_probe::device::ProbeDevice;
use sero_probe::sector::{SectorCodec, SECTOR_DATA_BYTES, SECTOR_DOTS};
use sero_proto::frame::{decode_frame, encode_request, encode_response};
use sero_proto::{Request, Response, WireLine};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Timed calls of each primitive.
const CALLS: usize = 1000;
/// Timed `verify_line` calls: each one reads a whole line.
const VERIFY_CALLS: usize = 200;

/// One recorded interval.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    req: Option<u64>,
}

/// Spans kept in memory and written out when the run ends.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        req: Option<u64>,
    ) -> u32 {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Opens a span that [`Spans::close`] ends.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let now = Instant::now();
        self.push(name, now, now, None, None)
    }

    pub fn close(&mut self, id: u32) {
        let end = self.ns(Instant::now());
        self.spans[id as usize].end_ns = end;
    }

    /// The span file: one JSON document, one span per line.
    fn render(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        let _ = writeln!(
            out,
            "{{\"schema\":\"sero-e2e-trace/v1\",\"workload\":\"{workload}\",\"seed\":{seed},\
             \"clock\":\"ns since the trace began\",\"spans\":["
        );
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                if id == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(u64::from)),
                opt(s.req),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

fn kind_span(req: &Request) -> &'static str {
    match req {
        Request::Read { .. } => "fs.read",
        Request::Create { .. } => "fs.create",
        Request::Heat { .. } => "fs.heat",
        Request::Verify { .. } => "fs.verify",
        Request::Stat { .. } => "fs.stat",
        Request::List { .. } => "fs.list",
        Request::Remove { .. } => "fs.remove",
        _ => "fs.other",
    }
}

/// The per-kind costs reported, in output order. Kinds a workload never
/// sends report 0.
const KINDS: [(&str, &str); 7] = [
    ("fs.read", "fs.read_us"),
    ("fs.create", "fs.create_us"),
    ("fs.heat", "fs.heat_us"),
    ("fs.verify", "fs.verify_us"),
    ("fs.stat", "fs.stat_us"),
    ("fs.list", "fs.list_us"),
    ("fs.remove", "fs.remove_us"),
];

pub fn run(model: &Model, population: &[Request], seconds: f64) -> Report {
    let mut spans = Spans::new();
    let mut checkers = Vec::new();
    // Every phase below starts from its own copy of one starting state:
    // a copy's maps are laid out afresh, so the untraced phase must not
    // run on the original while the traced one runs on a copy.
    let pristine = build_fs(population).with_fs(|fs| fs.clone());
    let plan = Plan {
        warmup: Duration::ZERO,
        measure: Duration::from_secs_f64(seconds / 4.0),
        slice_requests: None,
    };

    // 1. The same stream and starting state, untraced and then traced.
    let mut check = Checker::new(model);
    let mut served = Served::start(ConcurrentFs::new(pristine.clone()), model);
    let untraced = run_phase(&mut served.clients, &served.cfs, &mut check, &plan, None);
    served.stop();
    checkers.push(check);

    let mut check = Checker::new(model);
    let root = spans.open("phase.wire");
    let mut served = Served::start(ConcurrentFs::new(pristine.clone()), model);
    let mut rec = Recorder::new(&mut spans, root);
    let traced = run_phase(
        &mut served.clients,
        &served.cfs,
        &mut check,
        &plan,
        Some(&mut rec),
    );
    let Recorder {
        windows, responses, ..
    } = rec;
    served.stop();
    spans.close(root);
    checkers.push(check);
    let ops_per_s = |phase: &crate::wire::Phase| {
        phase
            .slices
            .first()
            .map_or(0.0, |s| s.ops as f64 / s.wall_s())
    };
    let (untraced_ops_per_s, traced_ops_per_s) = (ops_per_s(&untraced), ops_per_s(&traced));
    let device_ops_per_s = traced.counters.as_ref().map_or(0.0, |(start, end)| {
        traced.measured as f64 / ((end.device_ns - start.device_ns) as f64 / 1e9)
    });
    let ops: usize = windows.iter().map(Vec::len).sum();
    let n = ops.max(1) as f64;

    // 2a. The frame codec on every request and its recorded response.
    let root = spans.open("phase.proto");
    let (mut encode_ns, mut decode_ns) = (Vec::with_capacity(ops), Vec::with_capacity(ops));
    let mut wire_bytes = 0u64;
    let mut codec_mismatches = 0u64;
    let mut req_id = 0u64;
    for (window, answers) in windows.iter().zip(&responses) {
        for (op, resp) in window.iter().zip(answers) {
            let t0 = Instant::now();
            let frame = encode_request(&op.req).expect("requests fit one frame");
            let t1 = Instant::now();
            let (_, payload, _) = decode_frame(&frame).expect("own frame decodes");
            let req = Request::decode(payload).expect("own request decodes");
            let t2 = Instant::now();
            let rframe = encode_response(resp).expect("recorded responses fit one frame");
            let t3 = Instant::now();
            let (_, rpayload, _) = decode_frame(&rframe).expect("own frame decodes");
            let back = Response::decode(rpayload).expect("own response decodes");
            let t4 = Instant::now();
            codec_mismatches += u64::from(req != op.req || back != *resp);
            encode_ns.push((t1 - t0 + (t3 - t2)).as_nanos() as f64);
            decode_ns.push((t2 - t1 + (t4 - t3)).as_nanos() as f64);
            wire_bytes += (frame.len() + rframe.len()) as u64;
            for (name, a, b) in [
                ("proto.encode_request", t0, t1),
                ("proto.decode_request", t1, t2),
                ("proto.encode_response", t2, t3),
                ("proto.decode_response", t3, t4),
            ] {
                spans.push(name, a, b, Some(root), Some(req_id));
            }
            req_id += 1;
        }
    }
    spans.close(root);

    // 2b. One combining window per traced window, with counter deltas.
    let root = spans.open("phase.batch");
    let mut check = Checker::new(model);
    let cfs = ConcurrentFs::new(pristine.clone());
    let before = Snapshot::take(&cfs);
    let index_before = cfs.with_fs(|fs| fs.index_stats());
    let mut batch_ns_per_op = Vec::with_capacity(windows.len());
    let mut prims = Primitives::new(pristine.device().clone(), windows.len(), model.seed);
    let mut req_id = 0u64;
    for (w, window) in windows.iter().enumerate() {
        prims.run_until(w * prims.rounds / windows.len().max(1), &mut spans, root);
        let batch: Vec<Request> = window.iter().map(|op| op.req.clone()).collect();
        let t0 = Instant::now();
        let answers = cfs.handle_batch(batch);
        let t1 = Instant::now();
        batch_ns_per_op.push((t1 - t0).as_nanos() as f64 / window.len() as f64);
        spans.push("fs.handle_batch", t0, t1, Some(root), Some(req_id));
        for (op, resp) in window.iter().zip(&answers) {
            check.check(op, resp);
        }
        req_id += window.len() as u64;
    }
    let after = Snapshot::take(&cfs);
    prims.run_until(prims.rounds, &mut spans, root);
    let micro = prims.costs();
    drop(prims);
    spans.close(root);
    let bytes_hashed = check.bytes_hashed;
    checkers.push(check);
    let index_after = cfs.with_fs(|fs| fs.index_stats());
    drop(cfs);

    // 2c. Each request alone, for the per-kind costs.
    let root = spans.open("phase.depth1");
    let mut check = Checker::new(model);
    let cfs = ConcurrentFs::new(pristine);
    let mut per_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (id, op) in windows.iter().flatten().enumerate() {
        let req = op.req.clone();
        let kind = kind_span(&req);
        let t0 = Instant::now();
        let resp = cfs.handle(req);
        let t1 = Instant::now();
        spans.push(kind, t0, t1, Some(root), Some(id as u64));
        per_kind
            .entry(kind)
            .or_default()
            .push((t1 - t0).as_nanos() as f64);
        check.check(op, &resp);
    }
    drop(cfs);
    spans.close(root);
    checkers.push(check);

    // Derivation.
    let delta = Delta::between(&before, &after);
    let counts = PrimitiveCounts {
        mrs: delta.probe.mrs as f64 / n,
        mws: delta.probe.mws as f64 / n,
        ers: delta.probe.ers as f64 / n,
        ews: delta.probe.ews as f64 / n,
    };
    let batch_us = median(&batch_ns_per_op) / 1e3;
    let proto_encode_us = median(&encode_ns) / 1e3;
    let proto_decode_us = median(&decode_ns) / 1e3;
    let wire_us = if traced_ops_per_s > 0.0 {
        1e6 / traced_ops_per_s
    } else {
        0.0
    };
    let derived = self_times(&SelfTimeInputs {
        counts,
        costs: micro.costs,
        bytes_hashed: bytes_hashed as f64 / n,
        sha256_mib_per_s: micro.sha256_mib_per_s,
        batch_us,
        proto_us: proto_encode_us + proto_decode_us,
        wire_us,
    });
    let overhead_frac = if untraced_ops_per_s > 0.0 {
        1.0 - traced_ops_per_s / untraced_ops_per_s
    } else {
        0.0
    };
    let kind_us = |kind: &str| per_kind.get(kind).map_or(0.0, |ns| median(ns) / 1e3);
    let c = &micro.costs;
    let mut metrics = vec![
        Metric::new("media.detect_ns_per_dot", micro.detect_ns_per_dot, "ns"),
        Metric::new(
            "media.dots_sensed_per_op",
            delta.probe.mrb as f64 / n,
            "count",
        ),
        Metric::new("codec.sector_decode_us", micro.decode_us, "us"),
        Metric::new("codec.sector_encode_us", micro.encode_us, "us"),
    ];
    metrics.extend(delta.probe_counts(n));
    metrics.extend([
        Metric::new("probe.mrs_us", c.mrs_us, "us"),
        Metric::new("probe.mws_us", c.mws_us, "us"),
        Metric::new("probe.ers_us", c.ers_us, "us"),
        Metric::new("probe.ews_us", c.ews_us, "us"),
        Metric::new(
            "probe.attributed_us_per_op",
            derived.probe_attributed_us,
            "us",
        ),
        Metric::new("probe.device_ops_per_s", device_ops_per_s, "req/device-s"),
        Metric::new("crypto.sha256_mib_per_s", micro.sha256_mib_per_s, "MiB/s"),
        Metric::new(
            "crypto.bytes_hashed_per_op",
            bytes_hashed as f64 / n,
            "bytes",
        ),
    ]);
    metrics.extend(delta.admission_counts(n));
    metrics.extend([
        Metric::new("core.verify_line_us", micro.verify_line_us, "us"),
        Metric::new("fs.batch_us_per_op", batch_us, "us"),
        Metric::new("fs.self_us_per_op", derived.fs_self_us, "us"),
    ]);
    metrics.extend(
        KINDS
            .iter()
            .map(|&(kind, name)| Metric::new(name, kind_us(kind), "us")),
    );
    metrics.extend(delta.fs_counts(n));
    metrics.extend([
        Metric::new("server.self_us_per_op", derived.server_self_us, "us"),
        Metric::new("proto.encode_us_per_op", proto_encode_us, "us"),
        Metric::new("proto.decode_us_per_op", proto_decode_us, "us"),
        Metric::new("proto.wire_bytes_per_op", wire_bytes as f64 / n, "bytes"),
        Metric::new("trace.overhead_frac", overhead_frac, "fraction"),
    ]);

    let mut extra = vec![
        Metric::new("probe.steps_per_op", delta.probe.steps as f64 / n, "count"),
        Metric::new("crypto.us_per_op", derived.crypto_us, "us"),
        Metric::new("trace.untraced_ops_per_s", untraced_ops_per_s, "req/s"),
        Metric::new("trace.traced_ops_per_s", traced_ops_per_s, "req/s"),
        Metric::new("trace.wire_us_per_op", wire_us, "us"),
        Metric::new("trace.replayed_requests", ops as f64, "count"),
        Metric::new("trace.spans", spans.spans.len() as f64, "count"),
    ];
    // Only a file system running the metadata index reports these.
    if let (Some(a), Some(b)) = (index_before, index_after) {
        extra.extend([
            Metric::new(
                "index.flushes_per_kop",
                (b.flushes - a.flushes) as f64 * 1e3 / n,
                "count",
            ),
            Metric::new(
                "index.compactions_per_kop",
                (b.compactions - a.compactions) as f64 * 1e3 / n,
                "count",
            ),
            Metric::new(
                "index.bloom_skips_per_op",
                (b.bloom_skips - a.bloom_skips) as f64 / n,
                "count",
            ),
        ]);
    }

    let path = PathBuf::from(format!("e2e_trace_{}.json", model.workload.name()));
    std::fs::write(&path, spans.render(model.workload.name(), model.seed))
        .expect("write the span file into the working directory");
    eprintln!("wrote {}", path.display());

    let mut wrong = codec_mismatches;
    let mut failed = untraced.transport_failures + traced.transport_failures;
    let mut problem =
        (codec_mismatches > 0).then(|| "the frame codec changed a message".to_string());
    for check in &checkers {
        wrong += check.wrong;
        failed += check.errors;
        if problem.is_none() {
            problem.clone_from(&check.first_problem);
        }
    }
    Report {
        metrics,
        extra,
        attempted: untraced.sent + traced.sent + 2 * ops as u64,
        failed,
        correct: wrong == 0,
        problem,
    }
}

/// A written sector carries the sector magic (`0x5E20`, little-endian)
/// in its first two bytes, MSB first on the dots. Reading the dot states
/// off the medium costs neither simulated time nor channel randomness.
fn is_written(probe: &ProbeDevice, pba: u64) -> bool {
    let first = probe.block_first_dot(pba);
    let magic = sero_probe::sector::SECTOR_MAGIC.to_le_bytes();
    (0..16u64).all(|bit| {
        let want = magic[(bit / 8) as usize] >> (7 - bit % 8) & 1 == 1;
        probe.medium().state(first + bit) == if want { DotState::Up } else { DotState::Down }
    })
}

/// `count` entries of `from`, evenly spaced, cycling when `from` is
/// shorter.
fn spread(from: &[u64], count: usize) -> Vec<u64> {
    assert!(!from.is_empty(), "nothing to sample from");
    if from.len() <= count {
        return from.iter().copied().cycle().take(count).collect();
    }
    (0..count).map(|i| from[i * from.len() / count]).collect()
}

fn time<T>(spans: &mut Spans, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = black_box(f());
    let t1 = Instant::now();
    spans.push(name, t0, t1, Some(parent), None);
    (out, (t1 - t0).as_nanos() as f64)
}

/// Times each layer's primitives alone, one round at a time, on a copy
/// of the starting state. Rounds are interleaved with the replayed
/// windows, so primitive costs and replay costs sample the same spells
/// of host speed.
struct Primitives {
    dev: SeroDevice,
    rounds: usize,
    /// Blocks the workload's starting state wrote.
    used: Vec<u64>,
    /// `ers` targets: hash blocks when the workload seals, else `used`.
    scanned: Vec<u64>,
    /// Unused blocks, clear of every other target, for `ews`.
    unused: Vec<u64>,
    lines: Vec<Line>,
    payload: Vec<bool>,
    line_buf: Vec<u8>,
    channel: ReadChannel,
    rng: StdRng,
    codec: SectorCodec,
    done: usize,
    mrs_ns: Vec<f64>,
    mws_ns: Vec<f64>,
    ers_ns: Vec<f64>,
    ews_ns: Vec<f64>,
    encode_ns: Vec<f64>,
    decode_ns: Vec<f64>,
    detect_ns: Vec<f64>,
    sha_ns: Vec<f64>,
    verify_ns: Vec<f64>,
}

/// What [`Primitives`] measured.
struct PrimitiveReport {
    costs: PrimitiveCosts,
    detect_ns_per_dot: f64,
    decode_us: f64,
    encode_us: f64,
    sha256_mib_per_s: f64,
    verify_line_us: f64,
}

/// Every this many rounds, one `verify_line`: it reads a whole line.
const VERIFY_EVERY: usize = CALLS / VERIFY_CALLS;

impl Primitives {
    /// Picks targets on `dev` for `rounds` rounds (at least [`CALLS`]).
    fn new(mut dev: SeroDevice, rounds: usize, seed: u64) -> Primitives {
        let rounds = rounds.max(CALLS);
        let blocks = dev.block_count();
        let used: Vec<u64> = (0..blocks)
            .filter(|&b| is_written(dev.probe(), b))
            .collect();
        let mut lines: Vec<Line> = dev.heated_lines().map(|r| r.line).collect();
        let scanned = if lines.is_empty() {
            spread(&used, rounds)
        } else {
            spread(
                &lines.iter().map(Line::hash_block).collect::<Vec<_>>(),
                rounds,
            )
        };

        // The longest run of blocks nothing uses. `ews` leaks heat into
        // neighbouring blocks, so its targets keep a margin from the run's
        // ends and from the line sealed below.
        let free = |b: u64| !is_written(dev.probe(), b) && dev.line_of(b).is_none();
        let (mut run, mut best) = ((0u64, 0u64), (0u64, 0u64));
        for b in 0..blocks {
            if free(b) {
                run = if run.1 == b {
                    (run.0, b + 1)
                } else {
                    (b, b + 1)
                };
                if run.1 - run.0 > best.1 - best.0 {
                    best = run;
                }
            }
        }
        let first_slot = (best.0 + 2).div_ceil(8) * 8;
        assert!(
            first_slot + 16 + rounds as u64 + 2 <= best.1,
            "the device has room for the primitive targets"
        );
        if lines.is_empty() {
            // Nothing sealed: seal one line in unused space to verify.
            let line = Line::new(first_slot, 3).expect("aligned by construction");
            for pba in line.data_blocks() {
                dev.probe_mut()
                    .mws(pba, &[0u8; SECTOR_DATA_BYTES])
                    .expect("format an unused block");
            }
            dev.heat_line(line, b"e2e verify".to_vec(), 0)
                .expect("seal an unused line");
            lines.push(line);
        }
        let unused = (first_slot + 16..first_slot + 16 + rounds as u64).collect();
        let payload = HashBlockPayload::new(
            Line::new(0, 3).expect("aligned"),
            sha256(b"e2e"),
            0,
            vec![0x5A; 32],
        )
        .expect("32 bytes of metadata fit")
        .to_bits();
        let line_bytes = line_hash_bytes(WireLine { start: 0, order: 3 }) as usize;
        Primitives {
            dev,
            rounds,
            used: spread(&used, rounds),
            scanned,
            unused,
            lines,
            payload,
            line_buf: SplitMix64::fork(seed, 99).bytes(line_bytes),
            channel: ReadChannel::default(),
            rng: StdRng::seed_from_u64(seed),
            codec: SectorCodec::new(),
            done: 0,
            mrs_ns: Vec::new(),
            mws_ns: Vec::new(),
            ers_ns: Vec::new(),
            ews_ns: Vec::new(),
            encode_ns: Vec::new(),
            decode_ns: Vec::new(),
            detect_ns: Vec::new(),
            sha_ns: Vec::new(),
            verify_ns: Vec::new(),
        }
    }

    /// Runs rounds until `done` of the planned rounds have run.
    fn run_until(&mut self, done: usize, spans: &mut Spans, parent: u32) {
        while self.done < done.min(self.rounds) {
            self.round(spans, parent);
        }
    }

    /// One call of each primitive.
    fn round(&mut self, spans: &mut Spans, parent: u32) {
        let i = self.done;
        self.done += 1;
        let dev = &mut self.dev;
        let pba = self.used[i];
        let (read, ns) = time(spans, "probe.mrs", parent, || dev.probe_mut().mrs(pba));
        if let Ok(sector) = read {
            self.mrs_ns.push(ns);
            let data = sector.data;
            let (written, ns) = time(spans, "probe.mws", parent, || {
                dev.probe_mut().mws(pba, &data)
            });
            written.expect("rewrite a block the workload wrote");
            self.mws_ns.push(ns);
            let codec = &self.codec;
            let (raw, ns) = time(spans, "codec.encode", parent, || codec.encode(pba, &data));
            self.encode_ns.push(ns);
            let (back, ns) = time(spans, "codec.decode", parent, || {
                codec.decode(pba, &raw, &[])
            });
            self.decode_ns.push(ns);
            assert_eq!(
                back.expect("a fresh encoding decodes").data,
                data,
                "codec round trip"
            );
        }

        let first = dev.probe().block_first_dot(pba);
        let (medium, channel, rng) = (dev.probe().medium(), &self.channel, &mut self.rng);
        let ((), ns) = time(spans, "media.detect_sector", parent, || {
            for dot in first..first + SECTOR_DOTS as u64 {
                black_box(channel.detect(medium, dot, rng));
            }
        });
        self.detect_ns.push(ns);

        let buf = &self.line_buf;
        let (_, ns) = time(spans, "crypto.sha256", parent, || sha256(black_box(buf)));
        self.sha_ns.push(ns);

        let target = self.scanned[i];
        let (scan, ns) = time(spans, "probe.ers", parent, || dev.probe_mut().ers(target));
        scan.expect("scan an in-range block");
        self.ers_ns.push(ns);

        let (target, payload) = (self.unused[i], &self.payload);
        let (report, ns) = time(spans, "probe.ews", parent, || {
            dev.probe_mut().ews(target, payload)
        });
        report.expect("heat an in-range block");
        self.ews_ns.push(ns);

        if i.is_multiple_of(VERIFY_EVERY) {
            let line = self.lines[(i / VERIFY_EVERY) % self.lines.len()];
            let (outcome, ns) = time(spans, "core.verify_line", parent, || dev.verify_line(line));
            assert!(
                outcome.expect("verify an in-range line").is_intact(),
                "a sealed line failed to verify"
            );
            self.verify_ns.push(ns);
        }
    }

    fn costs(&self) -> PrimitiveReport {
        let us = |ns: &[f64]| median(ns) / 1e3;
        PrimitiveReport {
            costs: PrimitiveCosts {
                mrs_us: us(&self.mrs_ns),
                mws_us: us(&self.mws_ns),
                ers_us: us(&self.ers_ns),
                ews_us: us(&self.ews_ns),
            },
            detect_ns_per_dot: median(&self.detect_ns) / SECTOR_DOTS as f64,
            decode_us: us(&self.decode_ns),
            encode_us: us(&self.encode_ns),
            sha256_mib_per_s: self.line_buf.len() as f64
                / (1024.0 * 1024.0)
                / (median(&self.sha_ns) / 1e9),
            verify_line_us: us(&self.verify_ns),
        }
    }
}
