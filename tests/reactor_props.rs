//! Property tests for incremental frame reassembly, plus two reactor
//! checks: the stalled-peer regression and window formation. The reactor
//! reads whatever byte chunks the kernel hands it — a one-byte drip,
//! splits exactly on the magic / header / CRC boundaries, or several
//! frames coalesced into one read — and the [`FrameAssembler`] must
//! decode the identical frame sequence a whole-buffer decoder would,
//! without ever panicking.

use proptest::prelude::*;
use sero::proto::frame::{
    decode_frame, encode_request, FrameAssembler, FrameError, FrameKind, FRAME_OVERHEAD_BYTES,
};
use sero::proto::Request;
use sero_server::{SeroServer, ServerConfig};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A small population of request shapes to interleave on the wire.
fn nth_request(tag: usize, fill: &[u8]) -> Request {
    match tag % 5 {
        0 => Request::Ping,
        1 => Request::list_all(),
        2 => Request::Read {
            name: "chunked".into(),
        },
        3 => Request::Create {
            name: "chunked".into(),
            data: fill.to_vec(),
            class: sero::proto::WireClass::Normal,
        },
        _ => Request::FleetStatus,
    }
}

/// Reference decode: run `decode_frame` over the whole buffer
/// frame-by-frame, as if the stream had arrived in one read.
fn whole_buffer_frames(wire: &[u8]) -> Vec<(FrameKind, Vec<u8>)> {
    let mut frames = Vec::new();
    let mut at = 0;
    while at < wire.len() {
        let (kind, payload, used) = decode_frame(&wire[at..]).expect("reference decode");
        frames.push((kind, payload.to_vec()));
        at += used;
    }
    frames
}

/// Feed `wire` to an assembler in the given chunk sizes (cycled, with
/// the remainder as a final chunk), draining complete frames as they
/// form — exactly the reactor's read loop.
fn reassemble(wire: &[u8], chunk_sizes: &[usize]) -> Vec<(FrameKind, Vec<u8>)> {
    let mut asm = FrameAssembler::new();
    let mut frames = Vec::new();
    let mut at = 0;
    let mut i = 0;
    while at < wire.len() {
        let size = chunk_sizes
            .get(i % chunk_sizes.len().max(1))
            .copied()
            .unwrap_or(wire.len())
            .max(1)
            .min(wire.len() - at);
        asm.push(&wire[at..at + size]);
        at += size;
        i += 1;
        while let Some(frame) = asm.next_frame().expect("valid stream must decode") {
            frames.push(frame);
        }
    }
    assert!(!asm.mid_frame(), "complete stream must drain the assembler");
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary byte-level chunkings — including 1-byte drips and
    /// coalesced multi-frame reads — reassemble to exactly the frames a
    /// whole-buffer decode yields.
    #[test]
    fn any_chunking_decodes_identically_to_whole_frames(
        tags in proptest::collection::vec(0usize..5, 1..8),
        fill in proptest::collection::vec(any::<u8>(), 0..300),
        chunk_sizes in proptest::collection::vec(1usize..64, 1..40),
    ) {
        let mut wire = Vec::new();
        for &tag in &tags {
            wire.extend_from_slice(&encode_request(&nth_request(tag, &fill)).unwrap());
        }
        let want = whole_buffer_frames(&wire);
        prop_assert_eq!(want.len(), tags.len());

        let got = reassemble(&wire, &chunk_sizes);
        prop_assert_eq!(&got, &want, "chunked decode diverged");

        let dripped = reassemble(&wire, &[1]);
        prop_assert_eq!(&dripped, &want, "1-byte drip diverged");

        let coalesced = reassemble(&wire, &[wire.len()]);
        prop_assert_eq!(&coalesced, &want, "single-read decode diverged");
    }

    /// Splits landing exactly on the structural boundaries — after the
    /// magic, after the header, right before the CRC — are just more
    /// chunkings: same frames out.
    #[test]
    fn boundary_splits_decode_identically(
        tag in 0usize..5,
        fill in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let wire = encode_request(&nth_request(tag, &fill)).unwrap();
        let header = FRAME_OVERHEAD_BYTES - 4;
        let want = whole_buffer_frames(&wire);
        for cut in [4, header, wire.len() - 4] {
            let mut asm = FrameAssembler::new();
            asm.push(&wire[..cut]);
            prop_assert!(asm.next_frame().unwrap().is_none(), "partial at {}", cut);
            prop_assert!(asm.mid_frame());
            asm.push(&wire[cut..]);
            let got = vec![asm.next_frame().unwrap().expect("complete")];
            prop_assert_eq!(&got, &want, "boundary split at {} diverged", cut);
        }
    }

    /// Garbage — pure junk, or a valid frame with any byte flipped —
    /// never panics the assembler: it either wants more bytes or
    /// surfaces a clean `FrameError`, and a hard error agrees with the
    /// whole-buffer decoder's verdict.
    #[test]
    fn corrupt_streams_error_cleanly_under_any_chunking(
        junk in proptest::collection::vec(any::<u8>(), 1..200),
        flip_at in any::<proptest::sample::Index>(),
        xor in 1u8..=255,
        chunk_sizes in proptest::collection::vec(1usize..32, 1..20),
    ) {
        for stream in [junk.clone(), {
            let mut framed = encode_request(&Request::list_all()).unwrap();
            let at = flip_at.index(framed.len());
            framed[at] ^= xor;
            framed
        }] {
            let whole_verdict = decode_frame(&stream);
            let mut asm = FrameAssembler::new();
            let mut at = 0;
            let mut i = 0;
            let mut chunked_err: Option<FrameError> = None;
            'feed: while at < stream.len() {
                let size = chunk_sizes[i % chunk_sizes.len()].min(stream.len() - at);
                asm.push(&stream[at..at + size]);
                at += size;
                i += 1;
                loop {
                    match asm.next_frame() {
                        Ok(Some(_)) => {}
                        Ok(None) => break,
                        Err(e) => {
                            chunked_err = Some(e);
                            break 'feed;
                        }
                    }
                }
            }
            // A hard error from the whole buffer must also surface (the
            // same variant) under chunked delivery once enough bytes
            // arrived; Truncated means both sides are merely waiting.
            match whole_verdict {
                Err(FrameError::Truncated { .. }) | Ok(_) => {}
                Err(whole_err) => {
                    let got = chunked_err.expect("chunked decode missed the corruption");
                    prop_assert_eq!(got, whole_err);
                }
            }
        }
    }
}

/// Regression: a peer that stalls mid-frame is reaped by the reactor's
/// read-deadline timer without pinning any other connection — the
/// single-threaded event loop keeps answering everyone else while the
/// staller sits in its buffer, and the timer (not an EOF) frees the
/// slot.
#[test]
fn stalled_mid_frame_peer_is_reaped_without_pinning_others() {
    use sero_client::{ClientConfig, SeroClient};
    use sero_core::device::SeroDevice;
    use sero_fs::fs::{FsConfig, SeroFs};

    let fs = SeroFs::format(SeroDevice::with_blocks(256), FsConfig::default()).unwrap();
    let handle = SeroServer::bind(
        "127.0.0.1:0",
        fs,
        ServerConfig {
            read_timeout: Some(Duration::from_millis(150)),
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn()
    .unwrap();
    let addr = handle.addr();

    // Three stallers, each a different depth into a frame: half the
    // magic, the full header, and a torn payload.
    let torn = encode_request(&Request::Read { name: "x".into() }).unwrap();
    let mut stallers: Vec<TcpStream> = [2usize, 10, torn.len() - 2]
        .into_iter()
        .map(|cut| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&torn[..cut]).unwrap();
            s
        })
        .collect();

    // Meanwhile every live client is served promptly.
    let t0 = Instant::now();
    let mut client = SeroClient::connect_with(
        addr,
        ClientConfig {
            read_timeout: Some(Duration::from_secs(5)),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    client.ping().expect("stallers must not block service");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "served only after an unreasonable delay: {:?}",
        t0.elapsed()
    );

    // The timer — not our EOF — reaps each staller: their sockets close
    // from the server side within a bounded wait.
    for staller in &mut stallers {
        staller
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 64];
        let reaped = matches!(std::io::Read::read(staller, &mut buf), Ok(0) | Err(_));
        assert!(reaped, "staller not reaped by the read-deadline timer");
    }

    handle.shutdown();
}

/// n pipelined clients form one depth-n admission window. Every client
/// writes its `Read` frame before the reactor starts, so the first sweep
/// accepts and reads all n and dispatches them as a single
/// `handle_batch`. That window must cost the device exactly what
/// in-process `handle_batch` of the same requests costs a twin, and
/// answer the same.
#[test]
fn pipelined_clients_form_one_admission_window() {
    use sero::proto::frame::{read_frame, write_frame};
    use sero::proto::{Response, WireClass};
    use sero_core::device::SeroDevice;
    use sero_fs::concurrent::ConcurrentFs;
    use sero_fs::fs::{FsConfig, SeroFs};

    let build = || {
        let fs = SeroFs::format(SeroDevice::with_blocks(1024), FsConfig::default()).unwrap();
        let cfs = ConcurrentFs::new(fs);
        for i in 0..32u8 {
            let resp = cfs.handle(Request::Create {
                name: format!("f{i:02}"),
                data: vec![i; 700],
                class: WireClass::Normal,
            });
            assert!(matches!(resp, Response::Created { .. }), "{resp:?}");
        }
        cfs.with_fs(|fs| fs.device_mut().probe_mut().park_at(0));
        cfs
    };
    let clock = |cfs: &ConcurrentFs| cfs.with_fs(|fs| fs.device().probe().clock().elapsed_ns());

    for n in [1usize, 2, 4, 8, 16] {
        let requests: Vec<Request> = (0..n)
            .map(|i| Request::Read {
                name: format!("f{:02}", (i * 7) % 32),
            })
            .collect();
        let cfs = build();
        let server =
            SeroServer::bind_shared("127.0.0.1:0", cfs.clone(), ServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let mut clients: Vec<TcpStream> = requests
            .iter()
            .map(|req| {
                let mut conn = TcpStream::connect(addr).unwrap();
                conn.set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                write_frame(&mut conn, FrameKind::Request, &req.encode()).unwrap();
                conn
            })
            .collect();
        let (before, start) = (cfs.admission_stats(), clock(&cfs));
        let handle = server.spawn().unwrap();
        let served: Vec<Response> = clients
            .iter_mut()
            .map(|conn| {
                let (_, payload) = read_frame(conn).unwrap().expect("a response");
                Response::decode(&payload).unwrap()
            })
            .collect();
        let (after, elapsed) = (cfs.admission_stats(), clock(&cfs) - start);
        drop(clients);
        handle.shutdown();
        assert_eq!(
            (
                after.batches - before.batches,
                after.submitted - before.submitted
            ),
            (1, n as u64),
            "{n} pipelined clients must form exactly one depth-{n} admission window"
        );

        let twin = build();
        let twin_start = clock(&twin);
        assert_eq!(served, twin.handle_batch(requests), "window of {n}");
        assert_eq!(elapsed, clock(&twin) - twin_start, "window of {n}");
    }
}
