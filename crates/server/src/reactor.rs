//! The readiness-driven reactor: one event loop, many connections, one
//! batch window per sweep.
//!
//! A thread-per-connection daemon pays a wake/handoff per request; under
//! a client swarm the handoff — not the device — becomes the bottleneck,
//! and requests reach [`ConcurrentFs`] one at a time, so the admission
//! scheduler never sees a deep batch. The reactor avoids both: a single
//! thread owns every socket in non-blocking mode and sweeps them
//! poll(2)-style, so *all* requests readable in one sweep are decoded
//! together and dispatched as **one** [`ConcurrentFs::handle_batch`]
//! call — readiness batching *is* the batch window, and n concurrent
//! clients naturally form depth-n admission batches.
//!
//! # Event-loop phases (one sweep)
//!
//! 1. **shutdown** — the stop flag severs every connection and returns;
//!    bounded by the sweep cadence, no connection can delay it.
//! 2. **accept** — drain the listener. At `max_connections` the new
//!    socket is not silently parked in the backlog: it gets a typed
//!    [`ErrorCode::ServerBusy`] refusal frame and a graceful close.
//! 3. **read** — each open connection is read until `WouldBlock` (with
//!    a per-sweep fairness cap) into its [`FrameAssembler`]; complete
//!    frames decode to requests. Frame-level garbage answers a
//!    best-effort error and moves the connection to draining;
//!    `Malformed` payloads answer an error and keep the connection.
//! 4. **dispatch** — every request decoded this sweep, across all
//!    connections, goes into a single `handle_batch` window.
//!    Responses come back in order and are appended to each
//!    connection's outbox.
//! 5. **write** — flush outboxes until `WouldBlock`. A connection whose
//!    outbox exceeds the backpressure bound is not read (phase 3) until
//!    it drains — a slow reader throttles itself, not the reactor.
//! 6. **reap** — PR 8's socket deadlines re-expressed as reactor
//!    timers: a peer silent past the read deadline with nothing owed is
//!    reaped; a peer that stops draining its outbox past the write
//!    deadline is reaped; a flushed draining connection lingers briefly
//!    (so the refusal/error frame is delivered before the close) and is
//!    then removed.
//!
//! An entirely idle sweep sleeps `IDLE_SWEEP_SLEEP` (500 µs); that pause doubles
//! as a natural batching dwell — after a round of responses, the whole
//! closed-loop client population becomes readable again within it.
//!
//! # Connection state machine
//!
//! ```text
//!            accept (under cap)            accept (at cap)
//!                  │                             │
//!                  ▼                             ▼
//!               OPEN ──frame error/EOF──▶ DRAINING (refusal/error queued)
//!                 │                            │ outbox flushed
//!                 │ read deadline              ▼
//!                 │ (nothing owed)        LINGER (write side shut)
//!                 ▼                            │ peer EOF / linger timer
//!               reaped ◀───write deadline──────┘
//! ```

use sero_fs::concurrent::ConcurrentFs;
use sero_proto::frame::{encode_response, FrameAssembler, FrameKind};
use sero_proto::{ErrorCode, Request, Response, WireError, MAX_PAYLOAD_BYTES};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::server::ServerConfig;

/// Sleep after a sweep that accepted nothing, read nothing, and wrote
/// nothing. Bounds idle CPU; also the dwell within which a closed-loop
/// client population re-arms into the next batch window.
const IDLE_SWEEP_SLEEP: Duration = Duration::from_micros(500);

/// Per-read chunk size, and (times [`MAX_READS_PER_SWEEP`]) the fairness
/// cap on how much one firehose connection can consume per sweep.
const READ_CHUNK: usize = 64 * 1024;

/// Reads per connection per sweep before yielding to the next socket.
const MAX_READS_PER_SWEEP: usize = 4;

/// Stop reading a connection whose outbox holds more than this — the
/// backpressure bound (two maximum frames of headroom).
const MAX_OUTBOX_BYTES: usize = 2 * (MAX_PAYLOAD_BYTES + 64);

/// How long a flushed draining connection may linger for the peer to
/// read its final frame before the socket is removed outright.
const DRAIN_LINGER: Duration = Duration::from_millis(500);

/// Per-connection state owned by the reactor.
struct Conn {
    stream: TcpStream,
    /// Incremental reassembly of whatever byte chunks the socket yields.
    assembler: FrameAssembler,
    /// Encoded response frames waiting for the socket to accept them.
    outbox: Vec<u8>,
    /// Bytes of `outbox` already written.
    out_pos: usize,
    /// Last time the peer delivered bytes (arms the read-deadline reap).
    last_read: Instant,
    /// Last time the outbox made progress (arms the write-deadline reap).
    last_write: Instant,
    /// Close once the outbox flushes; no further requests are served.
    draining: bool,
    /// The peer half-closed; never read again.
    peer_eof: bool,
    /// When a draining connection finished flushing (starts the linger).
    flushed_at: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            assembler: FrameAssembler::new(),
            outbox: Vec::new(),
            out_pos: 0,
            last_read: now,
            last_write: now,
            draining: false,
            peer_eof: false,
            flushed_at: None,
        }
    }

    fn queue_response(&mut self, resp: &Response) {
        match encode_response(resp) {
            Ok(frame) => self.outbox.extend_from_slice(&frame),
            Err(e) => {
                // An answer too large for one frame becomes a typed
                // refusal instead of killing the connection. The
                // substitute is a short error payload, so its own encode
                // cannot overflow.
                let refusal = Response::Error(WireError::new(ErrorCode::OversizeResponse, e));
                let frame = encode_response(&refusal)
                    .expect("a short error response always fits one frame");
                self.outbox.extend_from_slice(&frame);
            }
        }
    }

    fn outbox_pending(&self) -> usize {
        self.outbox.len() - self.out_pos
    }
}

/// One decoded item from the read phase, in per-connection arrival
/// order: either a response already decided locally (gating, payload
/// errors) or a request bound for the batch window.
enum Decoded {
    Ready(Response),
    Dispatch(Request),
}

/// Runs the reactor on the calling thread until `stop` trips.
///
/// # Errors
///
/// Fatal listener errors only; per-connection errors are contained to
/// their connection.
pub(crate) fn run_reactor(
    listener: TcpListener,
    fs: &ConcurrentFs,
    config: &ServerConfig,
    stop: &Arc<AtomicBool>,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 0;
    let mut chunk = vec![0u8; READ_CHUNK];
    loop {
        if stop.load(Ordering::SeqCst) {
            for conn in conns.values() {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
            return Ok(());
        }
        let now = Instant::now();
        let mut did_work = false;

        // --- accept ---------------------------------------------------
        loop {
            let stream = match listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // transient accept failure; retry next sweep
            };
            did_work = true;
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let mut conn = Conn::new(stream, now);
            if conns.len() >= config.max_connections {
                conn.queue_response(&Response::Error(WireError::new(
                    ErrorCode::ServerBusy,
                    format!(
                        "connection refused: server is at --max-connections {}",
                        config.max_connections
                    ),
                )));
                conn.draining = true;
            }
            conns.insert(next_id, conn);
            next_id += 1;
        }

        // --- read + decode --------------------------------------------
        let mut ids: Vec<u64> = conns.keys().copied().collect();
        ids.sort_unstable(); // deterministic service order across sweeps
        let mut window: Vec<(u64, Decoded)> = Vec::new();
        let mut dead: Vec<u64> = Vec::new();
        for &id in &ids {
            let conn = conns.get_mut(&id).expect("id collected from live map");
            if conn.peer_eof || conn.outbox_pending() > MAX_OUTBOX_BYTES {
                continue;
            }
            let mut reads = 0;
            while reads < MAX_READS_PER_SWEEP {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.peer_eof = true;
                        break;
                    }
                    Ok(n) => {
                        did_work = true;
                        conn.last_read = now;
                        if !conn.draining {
                            conn.assembler.push(&chunk[..n]);
                        }
                        reads += 1;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead.push(id);
                        break;
                    }
                }
            }
            if dead.last() == Some(&id) {
                continue;
            }
            while !conn.draining {
                match conn.assembler.next_frame() {
                    Ok(Some((FrameKind::Request, payload))) => {
                        window.push((id, decode_request(&payload, config.allow_raw)));
                    }
                    Ok(Some((kind, _))) => {
                        conn.queue_response(&Response::Error(WireError::new(
                            ErrorCode::BadFrame,
                            format!("expected a request frame, got {kind:?}"),
                        )));
                        conn.draining = true;
                    }
                    Ok(None) => break,
                    Err(e) => {
                        // Unframeable bytes: the stream cannot resync,
                        // so answer best-effort, then drain and close.
                        conn.queue_response(&Response::Error(WireError::from(e)));
                        conn.draining = true;
                    }
                }
            }
            if conn.peer_eof && conn.outbox_pending() == 0 {
                dead.push(id);
            }
        }
        for id in dead.drain(..) {
            conns.remove(&id);
        }

        // --- dispatch: one batch window per sweep ----------------------
        if !window.is_empty() {
            did_work = true;
            // Move each request into the batch, leaving `None` where the
            // window's answer will come from `handle_batch`.
            let mut batch: Vec<Request> = Vec::with_capacity(window.len());
            let answers: Vec<(u64, Option<Response>)> = window
                .into_iter()
                .map(|(id, decoded)| match decoded {
                    Decoded::Ready(resp) => (id, Some(resp)),
                    Decoded::Dispatch(req) => {
                        batch.push(req);
                        (id, None)
                    }
                })
                .collect();
            let mut responses = fs.handle_batch(batch).into_iter();
            for (id, ready) in answers {
                let response = ready.or_else(|| responses.next()).unwrap_or_else(|| {
                    Response::Error(WireError::new(
                        ErrorCode::BadFrame,
                        "batch window answered short",
                    ))
                });
                // The connection may have died (EOF) after its request
                // was read; its response has nowhere to go.
                if let Some(conn) = conns.get_mut(&id) {
                    conn.queue_response(&response);
                }
            }
        }

        // --- write ----------------------------------------------------
        for &id in &ids {
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            while conn.outbox_pending() > 0 {
                match conn.stream.write(&conn.outbox[conn.out_pos..]) {
                    Ok(0) => {
                        dead.push(id);
                        break;
                    }
                    Ok(n) => {
                        did_work = true;
                        conn.out_pos += n;
                        conn.last_write = now;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead.push(id);
                        break;
                    }
                }
            }
            if dead.last() == Some(&id) {
                continue;
            }
            if conn.outbox_pending() == 0 {
                conn.outbox.clear();
                conn.out_pos = 0;
                if conn.draining && conn.flushed_at.is_none() {
                    // Final frame handed to the kernel: half-close so the
                    // peer sees EOF after reading it, then linger.
                    let _ = conn.stream.shutdown(Shutdown::Write);
                    conn.flushed_at = Some(now);
                }
            }
        }
        for id in dead.drain(..) {
            conns.remove(&id);
        }

        // --- reap: deadlines as reactor timers --------------------------
        conns.retain(|_, conn| {
            if let Some(flushed) = conn.flushed_at {
                // Flushed draining connection: gone once the peer
                // half-closes back or the linger expires.
                return !conn.peer_eof && now.duration_since(flushed) < DRAIN_LINGER;
            }
            if let Some(read_deadline) = config.read_timeout {
                // Idle or stalled-mid-frame peer with nothing owed.
                if conn.outbox_pending() == 0 && now.duration_since(conn.last_read) >= read_deadline
                {
                    let _ = conn.stream.shutdown(Shutdown::Both);
                    return false;
                }
            }
            if let Some(write_deadline) = config.write_timeout {
                // Peer that stopped draining its responses.
                if conn.outbox_pending() > 0
                    && now.duration_since(conn.last_write) >= write_deadline
                {
                    let _ = conn.stream.shutdown(Shutdown::Both);
                    return false;
                }
            }
            true
        });

        if !did_work {
            thread::sleep(IDLE_SWEEP_SLEEP);
        }
    }
}

/// Decodes one request payload: raw writes without `--allow-raw` answer
/// [`ErrorCode::UnsupportedCommand`]; a sound frame with an
/// unintelligible payload answers its decode error and keeps the
/// connection.
fn decode_request(payload: &[u8], allow_raw: bool) -> Decoded {
    match Request::decode(payload) {
        Ok(Request::RawWrite { .. }) if !allow_raw => {
            Decoded::Ready(Response::Error(WireError::new(
                ErrorCode::UnsupportedCommand,
                "raw writes are disabled; restart the daemon with --allow-raw for tamper drills",
            )))
        }
        Ok(request) => Decoded::Dispatch(request),
        Err(e) => Decoded::Ready(Response::Error(WireError::from(e))),
    }
}

#[cfg(test)]
mod tests {
    use crate::server::{SeroServer, ServerConfig};
    use sero_core::device::SeroDevice;
    use sero_fs::fs::{FsConfig, SeroFs};
    use sero_proto::frame::{encode_request, read_frame, write_frame, FrameKind};
    use sero_proto::{ErrorCode, Request, Response};
    use std::io::Write;
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    fn reactor_server(config: ServerConfig) -> (crate::server::ServerHandle, SocketAddr) {
        let fs = SeroFs::format(SeroDevice::with_blocks(256), FsConfig::default()).unwrap();
        let handle = SeroServer::bind("127.0.0.1:0", fs, config)
            .unwrap()
            .spawn()
            .unwrap();
        let addr = handle.addr();
        (handle, addr)
    }

    fn blocking_conn(addr: SocketAddr) -> TcpStream {
        let conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        conn
    }

    fn ping(conn: &mut TcpStream) -> Response {
        write_frame(conn, FrameKind::Request, &Request::Ping.encode()).unwrap();
        let (_, payload) = read_frame(conn).unwrap().expect("response frame");
        Response::decode(&payload).unwrap()
    }

    #[test]
    fn cap_refuses_with_server_busy_and_readmits_after_reap() {
        let (handle, addr) = reactor_server(ServerConfig {
            max_connections: 2,
            read_timeout: Some(Duration::from_secs(30)),
            ..ServerConfig::default()
        });

        let mut a = blocking_conn(addr);
        let mut b = blocking_conn(addr);
        assert_eq!(ping(&mut a), Response::Pong);
        assert_eq!(ping(&mut b), Response::Pong);

        // Third connection: typed refusal, then EOF — never silent.
        let mut c = blocking_conn(addr);
        let (_, payload) = read_frame(&mut c).unwrap().expect("refusal frame");
        match Response::decode(&payload).unwrap() {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::ServerBusy),
            other => panic!("expected ServerBusy refusal, got {other:?}"),
        }
        assert!(read_frame(&mut c).unwrap().is_none(), "refused then closed");
        drop(c);

        // Close one admitted connection; its slot readmits a newcomer.
        drop(a);
        let mut d = None;
        for _ in 0..100 {
            std::thread::sleep(Duration::from_millis(10));
            let mut candidate = blocking_conn(addr);
            write_frame(&mut candidate, FrameKind::Request, &Request::Ping.encode()).unwrap();
            let (_, payload) = read_frame(&mut candidate).unwrap().expect("response");
            match Response::decode(&payload).unwrap() {
                Response::Pong => {
                    d = Some(candidate);
                    break;
                }
                Response::Error(e) if e.code == ErrorCode::ServerBusy => continue,
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert!(d.is_some(), "slot never readmitted after close");

        assert_eq!(ping(&mut b), Response::Pong, "survivor still served");
        handle.shutdown();
    }

    #[test]
    fn pipelined_requests_answer_in_order_from_one_window() {
        let (handle, addr) = reactor_server(ServerConfig::default());
        let mut conn = blocking_conn(addr);
        // Three requests in a single write: the reactor decodes all of
        // them from one readable sweep and answers in order.
        let mut wire = Vec::new();
        wire.extend_from_slice(&encode_request(&Request::Ping).unwrap());
        wire.extend_from_slice(&encode_request(&Request::list_all()).unwrap());
        wire.extend_from_slice(&encode_request(&Request::Ping).unwrap());
        conn.write_all(&wire).unwrap();
        let expect = [
            Response::Pong,
            Response::Names {
                names: Vec::new(),
                next: None,
            },
            Response::Pong,
        ];
        for want in expect {
            let (_, payload) = read_frame(&mut conn).unwrap().expect("response");
            assert_eq!(Response::decode(&payload).unwrap(), want);
        }
        handle.shutdown();
    }

    #[test]
    fn stalled_mid_frame_peer_is_reaped_by_the_reactor_timer() {
        let (handle, addr) = reactor_server(ServerConfig {
            read_timeout: Some(Duration::from_millis(100)),
            ..ServerConfig::default()
        });
        let mut staller = blocking_conn(addr);
        staller.write_all(&[0x53, 0x45, 0x52, 0x57]).unwrap(); // four header bytes, then silence
        let mut victim = blocking_conn(addr);
        assert_eq!(ping(&mut victim), Response::Pong);
        // The reap closes the staller's socket: its next read sees EOF
        // (or a reset), never a hang.
        staller
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let reaped = matches!(read_frame(&mut staller), Ok(None) | Err(_));
        assert!(reaped, "staller socket still open after the deadline");
        // The victim idled past the same deadline while we watched the
        // staller — that reap is correct too. A fresh connection shows
        // the loop is still serving.
        let mut after = blocking_conn(addr);
        assert_eq!(ping(&mut after), Response::Pong, "reactor still serving");
        handle.shutdown();
    }
}
